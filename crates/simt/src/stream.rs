//! Streams, events, and a shared-device timeline — CUDA's concurrency
//! surface on the analytic makespan model.
//!
//! [`launch`](crate::launch::launch) answers "how long does this kernel
//! take on an idle device?". A serving workload asks a different question:
//! *many* kernels, submitted over time, sharing one device. This module
//! models that the way hardware does:
//!
//! * **Streams are FIFO** — a kernel on a stream starts only after the
//!   stream's previous kernel finished.
//! * **Streams overlap** — kernels on *different* streams may run
//!   concurrently. Blocks dispatch onto the device's SMs wherever capacity
//!   frees up first (the gigathread engine's greedy least-loaded rule, now
//!   across launches): a kernel that cannot fill the device leaves SMs for
//!   a concurrent kernel, which is exactly the underutilization-recovery
//!   that makes streams profitable on hardware.
//! * **Events order work across streams** — [`DeviceSim::record_event`]
//!   marks the completion of everything enqueued on a stream so far;
//!   [`DeviceSim::wait_event`] holds a stream's next kernels until the
//!   event resolves.
//!
//! Because the simulator is analytic, kernels still *execute* (host-side,
//! functionally) at submission; only their *timing* is resolved against the
//! shared SM timeline. Two simplifications are deliberate and documented:
//! memory bandwidth is charged per launch (concurrent launches do not slow
//! each other's DRAM traffic down), and a launch reserves its SMs for its
//! compute time only. Both err toward optimism for heavily overlapped
//! memory-bound mixes; relative comparisons between pool sizes and
//! schedules — what the serving experiments report — are unaffected.

use crate::cost::{CostModel, MemSummary};
use crate::error::{Result, SimError, SimResult};
use crate::fault::{FaultCounters, FaultPlan, FaultRng};
use crate::host::HostBackend;
use crate::launch::{run_blocks, validate, BlockKernel, LaunchConfig};
use crate::report::{Boundedness, LaunchReport, TimingBreakdown};
use crate::spec::GpuSpec;
use std::sync::Arc;
use trace::{FaultKind, KernelId, StreamOpKind, TraceEvent, TraceSink};

/// Handle to one FIFO work queue on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(u32);

impl StreamId {
    /// The stream's index on its device (the value trace events carry).
    pub fn index(&self) -> u32 {
        self.0
    }
}

/// A recorded marker: "everything enqueued on stream S up to this point".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event(usize);

/// Timing of one kernel on the shared device timeline.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The stream the kernel ran on.
    pub stream: StreamId,
    /// When the kernel became eligible (stream ready + waits + not-before).
    pub start_ms: f64,
    /// When the kernel completed.
    pub end_ms: f64,
    /// The launch's own report; `timing.elapsed_ms == end_ms - start_ms`
    /// *on this shared timeline* (≥ the idle-device elapsed time).
    pub report: LaunchReport,
}

impl JobReport {
    /// Shared-timeline latency of this kernel.
    pub fn elapsed_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// Per-stream accounting returned by [`DeviceSim::stream_report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamReport {
    /// The stream.
    pub stream: StreamId,
    /// Kernels completed on this stream.
    pub jobs: usize,
    /// Completion time of the stream's last kernel (0 if none ran).
    pub elapsed_ms: f64,
    /// Sum of kernel (end - start) spans on this stream.
    pub busy_ms: f64,
}

#[derive(Debug, Clone)]
struct StreamState {
    ready_ms: f64,
    jobs: usize,
    busy_ms: f64,
}

/// Live fault-injection state of one device: the attached plan, the
/// per-SM multipliers derived from it, the sequential per-dispatch
/// transient-failure stream, and counters of what actually fired.
#[derive(Debug, Clone)]
struct DeviceFaults {
    plan: FaultPlan,
    multipliers: Vec<f64>,
    rng: FaultRng,
    counters: FaultCounters,
}

/// One simulated device with a shared SM timeline, multiple streams, and
/// events. The in-flight-kernel counterpart of [`GpuSpec`] +
/// [`launch`](crate::launch::launch).
#[derive(Debug, Clone)]
pub struct DeviceSim {
    spec: GpuSpec,
    model: CostModel,
    /// Per-SM time at which the SM's queued compute drains (ms).
    sm_free: Vec<f64>,
    /// Per-SM cumulative busy time (ms), for occupancy accounting.
    sm_busy: Vec<f64>,
    streams: Vec<StreamState>,
    events: Vec<f64>,
    jobs_done: usize,
    makespan_ms: f64,
    /// Attached trace sink; `None` keeps every path allocation-free.
    sink: Option<Arc<dyn TraceSink>>,
    /// Device index stamped on emitted events.
    device_id: u32,
    /// Injected fault state; `None` keeps every path bitwise identical
    /// to a healthy device.
    faults: Option<DeviceFaults>,
    /// Host execution backend override; `None` defers to the ambient
    /// [`crate::host::current`] resolution (TLS scope, then env).
    host_backend: Option<HostBackend>,
}

impl DeviceSim {
    /// A device with the standard cost model.
    pub fn new(spec: GpuSpec) -> Self {
        Self::with_model(spec, CostModel::standard())
    }

    /// A device with an explicit cost model.
    pub fn with_model(spec: GpuSpec, model: CostModel) -> Self {
        let n = spec.num_sms as usize;
        Self {
            spec,
            model,
            sm_free: vec![0.0; n],
            sm_busy: vec![0.0; n],
            streams: Vec::new(),
            events: Vec::new(),
            jobs_done: 0,
            makespan_ms: 0.0,
            sink: None,
            device_id: 0,
            faults: None,
            host_backend: None,
        }
    }

    /// The device's architecture.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Attach a trace sink; subsequent launches, replays, and stream ops
    /// emit events stamped with `device_id`. Timing results are unchanged
    /// — the sink only observes the shared-timeline placement the device
    /// computes anyway.
    pub fn set_trace(&mut self, sink: Arc<dyn TraceSink>, device_id: u32) {
        self.sink = Some(sink);
        self.device_id = device_id;
    }

    /// Pin the host execution backend for this device's launches.
    ///
    /// Simulated timing, reports, and results are bitwise identical for
    /// every backend (see [`crate::host`]); only host wall-clock
    /// changes. `None` (the default) defers to the ambient thread-scoped
    /// backend or the `LOOPS_HOST_THREADS` process default.
    pub fn set_host_backend(&mut self, backend: HostBackend) {
        self.host_backend = Some(backend);
    }

    /// Attach a fault plan: subsequent dispatches run under the plan's
    /// degraded SMs, stall/kill windows, and transient launch failures.
    /// Derives the per-SM multipliers now (emitting one
    /// [`TraceEvent::Fault`] per degraded SM) and resets the plan's
    /// per-dispatch failure stream, so attaching the same plan twice
    /// reproduces the same fault sequence bitwise. Use the `try_*`
    /// dispatch entry points after this — the infallible ones panic if a
    /// fault fires.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let multipliers: Vec<f64> = (0..self.sm_free.len())
            .map(|i| plan.sm_multiplier(i as u32))
            .collect();
        let mut counters = FaultCounters::default();
        for &m in &multipliers {
            if m < 1.0 {
                counters.degraded_sms += 1;
                if let Some(sink) = &self.sink {
                    sink.event(&TraceEvent::Fault {
                        device: self.device_id,
                        kind: FaultKind::SmDegraded,
                        ts_ms: 0.0,
                        value: m,
                    });
                }
            }
        }
        self.faults = Some(DeviceFaults {
            rng: FaultRng::seed_from_u64(plan.seed),
            plan,
            multipliers,
            counters,
        });
    }

    /// Detach any fault plan; the device is healthy again (counters are
    /// discarded — read [`Self::fault_counters`] first if needed).
    pub fn clear_fault_plan(&mut self) {
        self.faults = None;
    }

    /// Counters of faults that have actually fired (all zero without a
    /// plan).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults.as_ref().map(|f| f.counters).unwrap_or_default()
    }

    /// True if the attached plan's kill tick has passed at `t_ms`: every
    /// dispatch at or after that time fails with
    /// [`SimError::DeviceLost`].
    pub fn is_dead_at(&self, t_ms: f64) -> bool {
        self.faults
            .as_ref()
            .and_then(|f| f.plan.kill_at_ms)
            .is_some_and(|k| t_ms >= k)
    }

    /// The throughput multiplier of SM `sm` under the attached plan
    /// (1.0 when healthy). Dividing a time by 1.0 is bit-exact, so the
    /// no-plan and healthy-plan paths stay bitwise identical.
    fn sm_mult(&self, sm: usize) -> f64 {
        match &self.faults {
            Some(f) => f.multipliers[sm],
            None => 1.0,
        }
    }

    /// Run one dispatch attempt through the attached plan's fault
    /// sequence: push the start past any stall window, refuse it if the
    /// device is dead, then draw from the transient-failure stream. A
    /// transient failure still burns the launch overhead at the head of
    /// `stream_idx`, so a retry on the same stream starts later. Returns
    /// the (possibly stalled) start time.
    fn fault_gate(&mut self, stream_idx: usize, mut start: f64) -> SimResult<f64> {
        let device = self.device_id;
        let overhead_ms = self.spec.launch_overhead_us * 1e-3;
        let Some(f) = self.faults.as_mut() else {
            return Ok(start);
        };
        if let Some(at) = f.plan.stall_at_ms {
            let window_end = at + f.plan.stall_ms;
            if start >= at && start < window_end {
                f.counters.stalled_dispatches += 1;
                if let Some(sink) = &self.sink {
                    sink.event(&TraceEvent::Fault {
                        device,
                        kind: FaultKind::Stall,
                        ts_ms: start,
                        value: window_end,
                    });
                }
                start = window_end;
            }
        }
        if let Some(kill) = f.plan.kill_at_ms {
            if start >= kill {
                f.counters.lost_dispatches += 1;
                if let Some(sink) = &self.sink {
                    sink.event(&TraceEvent::Fault {
                        device,
                        kind: FaultKind::DeviceLost,
                        ts_ms: start,
                        value: start,
                    });
                }
                return Err(SimError::DeviceLost { device, at_ms: start });
            }
        }
        if f.plan.launch_fail_prob > 0.0 && f.rng.chance(f.plan.launch_fail_prob) {
            f.counters.transient_launch_failures += 1;
            if let Some(sink) = &self.sink {
                sink.event(&TraceEvent::Fault {
                    device,
                    kind: FaultKind::TransientLaunch,
                    ts_ms: start,
                    value: start,
                });
            }
            let st = &mut self.streams[stream_idx];
            st.ready_ms = st.ready_ms.max(start + overhead_ms);
            return Err(SimError::TransientLaunch { device, at_ms: start });
        }
        Ok(start)
    }

    /// Open a new stream (its FIFO starts empty and ready at t = 0).
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.push(StreamState {
            ready_ms: 0.0,
            jobs: 0,
            busy_ms: 0.0,
        });
        StreamId(self.streams.len() as u32 - 1)
    }

    /// Launch a kernel on `stream`, eligible to start immediately.
    pub fn launch<K: BlockKernel>(
        &mut self,
        stream: StreamId,
        cfg: LaunchConfig,
        kernel: &K,
    ) -> Result<JobReport> {
        self.launch_at(stream, cfg, kernel, 0.0)
    }

    /// Launch a kernel on `stream`, eligible no earlier than
    /// `not_before_ms` on the device clock (an arrival time in a serving
    /// workload). Executes the kernel functionally now; resolves its
    /// timing against the shared SM timeline and returns the placement.
    ///
    /// Infallible with respect to injected faults: if the device has a
    /// [`FaultPlan`] and a dynamic fault fires, this panics — callers
    /// that attach plans must use [`Self::try_launch_at`] and handle
    /// [`SimError`]. (Degraded SMs never fail a dispatch, so plans that
    /// only degrade are safe on this path.)
    pub fn launch_at<K: BlockKernel>(
        &mut self,
        stream: StreamId,
        cfg: LaunchConfig,
        kernel: &K,
        not_before_ms: f64,
    ) -> Result<JobReport> {
        match self.try_launch_at(stream, cfg, kernel, not_before_ms) {
            Ok(j) => Ok(j),
            Err(SimError::Launch(e)) => Err(e),
            Err(e) => panic!("injected fault on infallible dispatch path: {e}; use try_launch_at"),
        }
    }

    /// [`Self::launch_at`] for devices running under a [`FaultPlan`]:
    /// surfaces dynamic faults ([`SimError::DeviceLost`],
    /// [`SimError::TransientLaunch`]) instead of panicking, so a runtime
    /// can retry or fail over. Stall windows delay the start; degraded
    /// SMs stretch per-SM drain times (timing only — functional results
    /// are computed before timing resolution and are never affected).
    pub fn try_launch_at<K: BlockKernel>(
        &mut self,
        stream: StreamId,
        cfg: LaunchConfig,
        kernel: &K,
        not_before_ms: f64,
    ) -> SimResult<JobReport> {
        let occ = validate(&self.spec, &cfg)?;
        let s = stream.0 as usize;
        assert!(s < self.streams.len(), "unknown stream {stream:?}");
        let start = self.streams[s].ready_ms.max(not_before_ms);
        let start = self.fault_gate(s, start)?;

        // Explicit sink wins; fall back to a thread-scoped one so
        // `simt::tracing::scoped` also covers stream launches.
        let scoped = if self.sink.is_none() {
            crate::tracing::current()
        } else {
            None
        };
        let sink: Option<(&dyn TraceSink, &'static str)> = self
            .sink
            .as_deref()
            .map(|s| (s, "kernel"))
            .or(scoped.as_ref().map(|(s, l)| (s.as_ref(), *l)));
        let kernel_id = sink.map(|_| KernelId::next());
        let t0 = std::time::Instant::now();
        let blocks = match self.host_backend {
            Some(b) => crate::host::scoped(b, || {
                run_blocks(&self.spec, &self.model, &cfg, kernel, sink.is_some())
            })?,
            None => run_blocks(&self.spec, &self.model, &cfg, kernel, sink.is_some())?,
        };
        let host_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Greedy block dispatch against the shared per-SM timeline,
        // mirroring `scheduler::device_time` but with non-zero SM start
        // offsets left by earlier launches.
        let hide = (f64::from(occ.resident_warps) / self.model.latency_hiding_warps).min(1.0);
        let eff_issue = (f64::from(self.spec.issue_width_per_sm) * hide).max(1e-9);
        let cycles_to_ms = 1.0 / (self.spec.clock_ghz * 1e9) * 1e3;

        let num_sms = self.sm_free.len();
        // Working finish times: an idle SM can start this job at `start`.
        let mut t: Vec<f64> = self.sm_free.iter().map(|&f| f.max(start)).collect();
        let mut critical = vec![0.0f64; num_sms];
        let mut used = vec![false; num_sms];
        let mut mem = MemSummary::default();
        let mut total_units = 0.0;
        for (bi, b) in blocks.iter().enumerate() {
            let (sm, _) = t
                .iter()
                .enumerate()
                .fold((0usize, f64::INFINITY), |(bi, bv), (i, &v)| {
                    if v < bv {
                        (i, v)
                    } else {
                        (bi, bv)
                    }
                });
            let units = b.total_units();
            total_units += units;
            // A degraded SM drains its queue slower (÷ its throughput
            // multiplier); ÷1.0 is bit-exact, so healthy paths are
            // bitwise unchanged.
            let m = self.sm_mult(sm);
            let block_start = t[sm];
            t[sm] += units / eff_issue * cycles_to_ms / m;
            critical[sm] = critical[sm].max(b.critical_warp() * cycles_to_ms / m);
            used[sm] = true;
            mem = mem.merged(b.mem);
            if let (Some((sink, _)), Some(kid)) = (sink, kernel_id) {
                sink.event(&TraceEvent::Block {
                    kernel: kid,
                    device: self.device_id,
                    block: bi as u32,
                    sm: sm as u32,
                    start_ms: block_start,
                    end_ms: t[sm],
                });
                for (w, (&cost, &active)) in b.warp_costs.iter().zip(&b.warp_active).enumerate() {
                    let frac = if cost > 0.0 {
                        (active / (f64::from(self.spec.warp_size) * cost)).clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    sink.event(&TraceEvent::Warp {
                        kernel: kid,
                        block: bi as u32,
                        warp: w as u32,
                        units: cost,
                        active_frac: frac,
                    });
                }
            }
        }
        // Latency-exposure: a warp outliving its SM's queued work stalls.
        let mut compute_end = start;
        let mut busy = 0.0f64;
        let mut ends = vec![0.0f64; num_sms];
        for i in 0..num_sms {
            if !used[i] {
                continue;
            }
            let job_start_i = self.sm_free[i].max(start);
            let load = t[i] - job_start_i;
            let end = t[i] + (critical[i] - load).max(0.0) * self.model.latency_stall;
            ends[i] = end;
            busy += end - job_start_i;
            compute_end = compute_end.max(end);
        }
        let compute_ms = compute_end - start;
        let utilization = if compute_ms > 0.0 {
            busy / (compute_ms * num_sms as f64)
        } else {
            0.0
        };
        let bw_frac = if mem.total_bytes() == 0 {
            1.0
        } else {
            (utilization * 4.0).clamp(0.05, 1.0)
        };
        let memory_ms = mem.total_bytes() as f64 / (self.spec.mem_bw_gbs * 1e9 * bw_frac) * 1e3;
        let overhead_ms = self.spec.launch_overhead_us * 1e-3;
        let end = compute_ms.max(memory_ms) + overhead_ms + start;

        if let (Some((sink, label)), Some(kid)) = (sink, kernel_id) {
            sink.event(&TraceEvent::Kernel {
                id: kid,
                name: label,
                device: self.device_id,
                stream: stream.0,
                start_ms: start,
                end_ms: end,
                grid_dim: cfg.grid_dim,
                block_dim: cfg.block_dim,
            });
        }

        // Commit: SMs stay reserved for their compute; the stream advances
        // to full completion.
        for i in 0..num_sms {
            if used[i] {
                let job_start_i = self.sm_free[i].max(start);
                self.sm_busy[i] += ends[i] - job_start_i;
                self.sm_free[i] = self.sm_free[i].max(ends[i]);
            }
        }
        let st = &mut self.streams[s];
        st.ready_ms = end;
        st.jobs += 1;
        st.busy_ms += end - start;
        self.jobs_done += 1;
        self.makespan_ms = self.makespan_ms.max(end);

        let timing = TimingBreakdown {
            compute_ms,
            memory_ms,
            overhead_ms,
            elapsed_ms: end - start,
            bound: if compute_ms >= memory_ms {
                Boundedness::Compute
            } else {
                Boundedness::Memory
            },
            sm_utilization: utilization,
            total_units,
            effective_issue_width: eff_issue,
            sm_times_ms: ends
                .iter()
                .enumerate()
                .map(|(i, &e)| if used[i] { e - start } else { 0.0 })
                .collect(),
        };
        Ok(JobReport {
            stream,
            start_ms: start,
            end_ms: end,
            report: LaunchReport {
                grid_dim: cfg.grid_dim,
                block_dim: cfg.block_dim,
                shared_bytes: cfg.shared_bytes,
                occupancy: occ,
                timing,
                mem,
                host_wall_ms,
            },
        })
    }

    /// Enqueue a kernel whose cost was already measured solo (a
    /// [`LaunchReport`] from the one-shot `launch_*` functions) without
    /// re-executing it. The job's *footprint* — how many SMs it occupies,
    /// for how long — is taken from the report and placed greedily onto
    /// the shared timeline, so streams overlap and contend exactly as
    /// with [`Self::launch_at`]. This is the serving-runtime entry point:
    /// application kernels (SpMV under any schedule, including
    /// multi-launch ones like LRB) run functionally once through their
    /// normal path, then their reports are replayed onto device streams.
    ///
    /// Footprint approximation: the job occupies `k =
    /// ⌈sm_utilization · num_sms⌉` SMs for its solo `compute_ms` (the
    /// solo makespan already folds in the launch's internal imbalance);
    /// memory and overhead are charged as in `launch_at`.
    pub fn replay(
        &mut self,
        stream: StreamId,
        report: &LaunchReport,
        not_before_ms: f64,
    ) -> JobReport {
        self.replay_named(stream, report, not_before_ms, "replay")
    }

    /// [`Self::replay`] with an explicit kernel name for the trace; the
    /// serving runtime passes the schedule label here so the Perfetto
    /// timeline reads "spmv/merge-path" instead of "replay".
    ///
    /// Infallible with respect to injected faults: panics if a dynamic
    /// fault fires — devices with a [`FaultPlan`] attached must use
    /// [`Self::try_replay_named`].
    pub fn replay_named(
        &mut self,
        stream: StreamId,
        report: &LaunchReport,
        not_before_ms: f64,
        name: &'static str,
    ) -> JobReport {
        match self.try_replay_named(stream, report, not_before_ms, name) {
            Ok(j) => j,
            Err(e) => panic!("injected fault on infallible replay path: {e}; use try_replay_named"),
        }
    }

    /// [`Self::replay_named`] for devices running under a [`FaultPlan`]:
    /// surfaces dynamic faults instead of panicking. Beyond the dispatch
    /// gate (stall / dead device / transient launch failure), a replayed
    /// job whose execution would still be running at the plan's kill
    /// tick is **lost mid-run**: the call fails with
    /// [`SimError::DeviceLost`] and commits *nothing* — no SM time, no
    /// stream advance, no trace spans — so the caller re-dispatches the
    /// whole job on a surviving device without double-charging this one.
    pub fn try_replay_named(
        &mut self,
        stream: StreamId,
        report: &LaunchReport,
        not_before_ms: f64,
        name: &'static str,
    ) -> SimResult<JobReport> {
        let s = stream.0 as usize;
        assert!(s < self.streams.len(), "unknown stream {stream:?}");
        let start = self.streams[s].ready_ms.max(not_before_ms);
        let start = self.fault_gate(s, start)?;

        let num_sms = self.sm_free.len();
        let solo_sms = report.timing.sm_times_ms.len().max(1);
        let span = report.timing.compute_ms;
        let k = if span > 0.0 {
            ((report.timing.sm_utilization * solo_sms as f64).ceil() as usize).clamp(1, num_sms)
        } else {
            0
        };

        // Plan the placement first (k least-loaded SMs, `span` each on
        // the SM's own clock, stretched on degraded SMs); commit only
        // after the kill check below so a lost job leaves no trace.
        let mut order: Vec<usize> = (0..num_sms).collect();
        order.sort_by(|&a, &b| {
            self.sm_free[a]
                .partial_cmp(&self.sm_free[b])
                .expect("SM times are finite")
                .then(a.cmp(&b))
        });
        order.truncate(k);
        let mut placements: Vec<(usize, f64, f64)> = Vec::with_capacity(k);
        let mut compute_end = start;
        for &i in &order {
            let job_start_i = self.sm_free[i].max(start);
            let end_i = job_start_i + span / self.sm_mult(i);
            placements.push((i, job_start_i, end_i));
            compute_end = compute_end.max(end_i);
        }
        let compute_ms = compute_end - start;
        let utilization = if num_sms > 0 {
            k as f64 / num_sms as f64
        } else {
            0.0
        };
        let bw_frac = if report.mem.total_bytes() == 0 {
            1.0
        } else {
            (utilization * 4.0).clamp(0.05, 1.0)
        };
        let memory_ms =
            report.mem.total_bytes() as f64 / (self.spec.mem_bw_gbs * 1e9 * bw_frac) * 1e3;
        let overhead_ms = report.timing.overhead_ms;
        let end = compute_ms.max(memory_ms) + overhead_ms + start;

        // Mid-run kill: the job started before the kill tick but would
        // still be running when the device dies — it is lost, and
        // nothing above was committed.
        if let Some(f) = self.faults.as_mut() {
            if let Some(kill) = f.plan.kill_at_ms {
                if end > kill {
                    f.counters.lost_dispatches += 1;
                    if let Some(sink) = &self.sink {
                        sink.event(&TraceEvent::Fault {
                            device: self.device_id,
                            kind: FaultKind::DeviceLost,
                            ts_ms: kill,
                            value: start,
                        });
                    }
                    return Err(SimError::DeviceLost {
                        device: self.device_id,
                        at_ms: kill,
                    });
                }
            }
        }

        // Commit the planned placement.
        let kernel_id = self.sink.as_ref().map(|_| KernelId::next());
        for (bi, &(i, job_start_i, end_i)) in placements.iter().enumerate() {
            self.sm_busy[i] += end_i - job_start_i;
            self.sm_free[i] = self.sm_free[i].max(end_i);
            if let (Some(sink), Some(kid)) = (&self.sink, kernel_id) {
                sink.event(&TraceEvent::Block {
                    kernel: kid,
                    device: self.device_id,
                    block: bi as u32,
                    sm: i as u32,
                    start_ms: job_start_i,
                    end_ms: end_i,
                });
            }
        }

        if let (Some(sink), Some(kid)) = (&self.sink, kernel_id) {
            sink.event(&TraceEvent::Kernel {
                id: kid,
                name,
                device: self.device_id,
                stream: stream.0,
                start_ms: start,
                end_ms: end,
                grid_dim: report.grid_dim,
                block_dim: report.block_dim,
            });
        }

        let st = &mut self.streams[s];
        st.ready_ms = end;
        st.jobs += 1;
        st.busy_ms += end - start;
        self.jobs_done += 1;
        self.makespan_ms = self.makespan_ms.max(end);

        let mut rep = report.clone();
        rep.timing.compute_ms = compute_ms;
        rep.timing.memory_ms = memory_ms;
        rep.timing.elapsed_ms = end - start;
        rep.timing.sm_utilization = utilization;
        Ok(JobReport {
            stream,
            start_ms: start,
            end_ms: end,
            report: rep,
        })
    }

    /// Record an event on `stream`: it resolves when everything enqueued
    /// on the stream so far has completed.
    pub fn record_event(&mut self, stream: StreamId) -> Event {
        let t = self.streams[stream.0 as usize].ready_ms;
        self.events.push(t);
        if let Some(sink) = &self.sink {
            sink.event(&TraceEvent::StreamOp {
                device: self.device_id,
                stream: stream.0,
                op: StreamOpKind::RecordEvent,
                ts_ms: t,
            });
        }
        Event(self.events.len() - 1)
    }

    /// Make `stream` wait for `event`: kernels launched on the stream
    /// after this call start no earlier than the event's resolution time.
    pub fn wait_event(&mut self, stream: StreamId, event: Event) {
        let t = self.events[event.0];
        let st = &mut self.streams[stream.0 as usize];
        st.ready_ms = st.ready_ms.max(t);
        if let Some(sink) = &self.sink {
            sink.event(&TraceEvent::StreamOp {
                device: self.device_id,
                stream: stream.0,
                op: StreamOpKind::WaitEvent,
                ts_ms: t,
            });
        }
    }

    /// The time at which `stream`'s queue drains.
    pub fn stream_ready_ms(&self, stream: StreamId) -> f64 {
        self.streams[stream.0 as usize].ready_ms
    }

    /// Per-stream accounting.
    pub fn stream_report(&self, stream: StreamId) -> StreamReport {
        let st = &self.streams[stream.0 as usize];
        StreamReport {
            stream,
            jobs: st.jobs,
            elapsed_ms: if st.jobs > 0 { st.ready_ms } else { 0.0 },
            busy_ms: st.busy_ms,
        }
    }

    /// Device-wide completion time: when the last queued kernel finishes.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ms
    }

    /// Kernels completed on this device.
    pub fn jobs_done(&self) -> usize {
        self.jobs_done
    }

    /// Mean SM busy fraction over the device makespan so far (0 if idle).
    /// This is the serving-level occupancy number: how much of the device
    /// the submitted mix actually used.
    pub fn sm_occupancy(&self) -> f64 {
        if self.makespan_ms <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.sm_busy.iter().sum();
        busy / (self.makespan_ms * self.sm_busy.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockCtx;

    /// A balanced compute kernel: `grid` blocks, every thread charges
    /// `units`.
    fn charge_kernel(units: f64) -> impl Fn(&mut BlockCtx<'_>) + Sync {
        move |b: &mut BlockCtx<'_>| b.for_each_thread(|t| t.charge(units))
    }

    fn solo_elapsed(spec: &GpuSpec, cfg: LaunchConfig, units: f64) -> f64 {
        let mut dev = DeviceSim::new(spec.clone());
        let s = dev.create_stream();
        dev.launch(s, cfg, &charge_kernel(units)).unwrap().elapsed_ms()
    }

    #[test]
    fn different_streams_overlap_on_underutilized_device() {
        let spec = GpuSpec::v100(); // 80 SMs
        let cfg = LaunchConfig::new(40, 256); // each kernel fills half
        let solo = solo_elapsed(&spec, cfg, 1_000.0);
        let mut dev = DeviceSim::new(spec);
        let (s1, s2) = (dev.create_stream(), dev.create_stream());
        let k = charge_kernel(1_000.0);
        let j1 = dev.launch(s1, cfg, &k).unwrap();
        let j2 = dev.launch(s2, cfg, &k).unwrap();
        let combined = j1.end_ms.max(j2.end_ms);
        assert!(
            combined < 2.0 * solo * 0.75,
            "combined {combined} vs serialized {}",
            2.0 * solo
        );
        // Both started at t = 0 — true concurrency, not queueing.
        assert_eq!(j1.start_ms, 0.0);
        assert_eq!(j2.start_ms, 0.0);
    }

    #[test]
    fn same_stream_serializes_fifo() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(40, 256);
        let mut dev = DeviceSim::new(spec);
        let s = dev.create_stream();
        let k = charge_kernel(1_000.0);
        let j1 = dev.launch(s, cfg, &k).unwrap();
        let j2 = dev.launch(s, cfg, &k).unwrap();
        assert!(
            j2.start_ms >= j1.end_ms,
            "FIFO: j2 start {} < j1 end {}",
            j2.start_ms,
            j1.end_ms
        );
    }

    #[test]
    fn event_orders_across_streams() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(40, 256);
        let mut dev = DeviceSim::new(spec);
        let (producer, consumer) = (dev.create_stream(), dev.create_stream());
        let k = charge_kernel(1_000.0);
        let j1 = dev.launch(producer, cfg, &k).unwrap();
        let ev = dev.record_event(producer);
        dev.wait_event(consumer, ev);
        let j2 = dev.launch(consumer, cfg, &k).unwrap();
        assert!(
            j2.start_ms >= j1.end_ms,
            "event wait: consumer started {} before producer ended {}",
            j2.start_ms,
            j1.end_ms
        );
    }

    #[test]
    fn event_before_work_is_a_no_op() {
        let spec = GpuSpec::v100();
        let mut dev = DeviceSim::new(spec);
        let (a, b) = (dev.create_stream(), dev.create_stream());
        let ev = dev.record_event(a); // nothing enqueued: resolves at 0
        dev.wait_event(b, ev);
        let j = dev
            .launch(b, LaunchConfig::new(8, 64), &charge_kernel(10.0))
            .unwrap();
        assert_eq!(j.start_ms, 0.0);
    }

    #[test]
    fn not_before_delays_start() {
        let spec = GpuSpec::v100();
        let mut dev = DeviceSim::new(spec);
        let s = dev.create_stream();
        let j = dev
            .launch_at(s, LaunchConfig::new(8, 64), &charge_kernel(10.0), 3.5)
            .unwrap();
        assert_eq!(j.start_ms, 3.5);
        assert!(dev.makespan_ms() > 3.5);
    }

    #[test]
    fn saturating_kernels_gain_nothing_from_streams() {
        // Each kernel already fills all 80 SMs evenly: overlap cannot help.
        // (Compute-dominated so the once-per-launch overhead is noise.)
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(160, 256);
        let solo = solo_elapsed(&spec, cfg, 100_000.0);
        let mut dev = DeviceSim::new(spec);
        let (s1, s2) = (dev.create_stream(), dev.create_stream());
        let k = charge_kernel(100_000.0);
        dev.launch(s1, cfg, &k).unwrap();
        let j2 = dev.launch(s2, cfg, &k).unwrap();
        assert!(
            j2.end_ms >= 1.8 * solo,
            "two saturating kernels {} vs solo {solo}",
            j2.end_ms
        );
    }

    #[test]
    fn stream_reports_count_jobs_and_spans() {
        let spec = GpuSpec::v100();
        let mut dev = DeviceSim::new(spec);
        let s = dev.create_stream();
        let k = charge_kernel(100.0);
        dev.launch(s, LaunchConfig::new(8, 64), &k).unwrap();
        dev.launch(s, LaunchConfig::new(8, 64), &k).unwrap();
        let r = dev.stream_report(s);
        assert_eq!(r.jobs, 2);
        assert!(r.elapsed_ms > 0.0);
        assert!((r.busy_ms - r.elapsed_ms).abs() < 1e-9, "FIFO stream is span-busy");
        assert_eq!(dev.jobs_done(), 2);
        assert!(dev.sm_occupancy() > 0.0);
    }

    #[test]
    fn replayed_reports_match_live_launch_behaviour() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(40, 256);
        // Measure solo with the one-shot path.
        let solo = crate::launch::launch_with_model(
            &spec,
            &CostModel::standard(),
            cfg,
            &charge_kernel(100_000.0),
        )
        .unwrap();
        // Replay on an idle device ≈ solo elapsed.
        let mut dev = DeviceSim::new(spec.clone());
        let s = dev.create_stream();
        let j = dev.replay(s, &solo, 0.0);
        let rel = (j.elapsed_ms() - solo.elapsed_ms()).abs() / solo.elapsed_ms();
        assert!(rel < 0.05, "idle replay {} vs solo {}", j.elapsed_ms(), solo.elapsed_ms());
        // Two half-device replays on different streams overlap...
        let mut dev = DeviceSim::new(spec.clone());
        let (s1, s2) = (dev.create_stream(), dev.create_stream());
        let j1 = dev.replay(s1, &solo, 0.0);
        let j2 = dev.replay(s2, &solo, 0.0);
        assert!(j1.end_ms.max(j2.end_ms) < 1.5 * solo.elapsed_ms());
        // ...but serialize on the same stream.
        let mut dev = DeviceSim::new(spec);
        let s = dev.create_stream();
        let j1 = dev.replay(s, &solo, 0.0);
        let j2 = dev.replay(s, &solo, 0.0);
        assert!(j2.start_ms >= j1.end_ms);
    }

    #[test]
    fn kernels_still_compute_correct_results() {
        let spec = GpuSpec::v100();
        let mut dev = DeviceSim::new(spec);
        let (s1, s2) = (dev.create_stream(), dev.create_stream());
        let n = 1024usize;
        let mut a = vec![0u64; n];
        let mut b = vec![0u64; n];
        {
            let ga = crate::memory::GlobalMem::new(&mut a);
            dev.launch(s1, LaunchConfig::over_threads(n as u64, 128), &|blk: &mut BlockCtx<'_>| {
                blk.for_each_thread(|t| {
                    let i = t.global_thread_id() as usize;
                    if i < n {
                        ga.store(i, i as u64 * 3);
                    }
                });
            })
            .unwrap();
            let gb = crate::memory::GlobalMem::new(&mut b);
            dev.launch(s2, LaunchConfig::over_threads(n as u64, 128), &|blk: &mut BlockCtx<'_>| {
                blk.for_each_thread(|t| {
                    let i = t.global_thread_id() as usize;
                    if i < n {
                        gb.store(i, i as u64 + 7);
                    }
                });
            })
            .unwrap();
        }
        assert!(a.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
        assert!(b.iter().enumerate().all(|(i, &v)| v == i as u64 + 7));
    }

    #[test]
    fn traced_device_matches_untraced_and_spans_nest() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(40, 256);
        let k = charge_kernel(1_000.0);
        let run = |sink: Option<Arc<trace::Recorder>>| {
            let mut dev = DeviceSim::new(spec.clone());
            if let Some(s) = &sink {
                dev.set_trace(s.clone(), 2);
            }
            let (s1, s2) = (dev.create_stream(), dev.create_stream());
            let j1 = dev.launch(s1, cfg, &k).unwrap();
            let ev = dev.record_event(s1);
            dev.wait_event(s2, ev);
            let j2 = dev.launch_at(s2, cfg, &k, 0.5).unwrap();
            (j1, j2, dev.makespan_ms())
        };
        let rec = Arc::new(trace::Recorder::new());
        let (p1, p2, pm) = run(None);
        let (t1, t2, tm) = run(Some(rec.clone()));
        assert_eq!(p1.start_ms, t1.start_ms);
        assert_eq!(p2.end_ms, t2.end_ms);
        assert_eq!(pm, tm);
        let mut rep_p = p2.report.clone();
        let mut rep_t = t2.report.clone();
        rep_p.host_wall_ms = 0.0;
        rep_t.host_wall_ms = 0.0;
        assert_eq!(rep_p, rep_t);

        let data = rec.snapshot();
        let kernels: Vec<_> = data.kernels().collect();
        assert_eq!(kernels.len(), 2);
        // Every block span sits inside its kernel's span.
        for ev in &data.events {
            if let TraceEvent::Block { kernel, start_ms, end_ms, .. } = ev {
                let span = kernels
                    .iter()
                    .find_map(|k| match k {
                        TraceEvent::Kernel { id, start_ms, end_ms, .. } if id == kernel => {
                            Some((*start_ms, *end_ms))
                        }
                        _ => None,
                    })
                    .expect("block references a recorded kernel");
                assert!(*start_ms >= span.0 - 1e-12 && *end_ms <= span.1 + 1e-12);
            }
        }
        // Both stream ops were recorded.
        let ops = data
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::StreamOp { .. }))
            .count();
        assert_eq!(ops, 2);
    }

    #[test]
    fn replay_named_emits_kernel_and_footprint_blocks() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(40, 256);
        let solo = crate::launch::launch_with_model(
            &spec,
            &CostModel::standard(),
            cfg,
            &charge_kernel(100_000.0),
        )
        .unwrap();
        let rec = Arc::new(trace::Recorder::new());
        let mut traced_dev = DeviceSim::new(spec.clone());
        traced_dev.set_trace(rec.clone(), 0);
        let s = traced_dev.create_stream();
        let jt = traced_dev.replay_named(s, &solo, 0.0, "spmv/merge-path");
        // Identical placement to an untraced device.
        let mut plain_dev = DeviceSim::new(spec);
        let sp = plain_dev.create_stream();
        let jp = plain_dev.replay(sp, &solo, 0.0);
        assert_eq!(jp.start_ms, jt.start_ms);
        assert_eq!(jp.end_ms, jt.end_ms);
        let data = rec.snapshot();
        assert!(data
            .kernels()
            .any(|k| matches!(k, TraceEvent::Kernel { name: "spmv/merge-path", .. })));
        assert!(data.blocks > 0, "footprint blocks recorded");
    }

    fn solo_report(spec: &GpuSpec, cfg: LaunchConfig, units: f64) -> LaunchReport {
        crate::launch::launch_with_model(spec, &CostModel::standard(), cfg, &charge_kernel(units))
            .unwrap()
    }

    #[test]
    fn healthy_fault_plan_is_bitwise_transparent() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(40, 256);
        let solo = solo_report(&spec, cfg, 50_000.0);
        let run = |plan: Option<FaultPlan>| {
            let mut dev = DeviceSim::new(spec.clone());
            if let Some(p) = plan {
                dev.set_fault_plan(p);
            }
            let s = dev.create_stream();
            let j1 = dev.try_launch_at(s, cfg, &charge_kernel(1_000.0), 0.0).unwrap();
            let j2 = dev.try_replay_named(s, &solo, 0.0, "replay").unwrap();
            (j1.start_ms, j1.end_ms, j2.start_ms, j2.end_ms, dev.makespan_ms())
        };
        assert_eq!(run(None), run(Some(FaultPlan::healthy(99))));
        assert_eq!(
            DeviceSim::new(spec).fault_counters(),
            FaultCounters::default()
        );
    }

    #[test]
    fn degraded_sms_stretch_timing_but_never_results() {
        let spec = GpuSpec::v100();
        let plan = FaultPlan::healthy(11).with_degraded_sms(0.6, 0.3, 0.7);
        let n = 512usize;
        let run = |plan: Option<FaultPlan>| {
            let mut dev = DeviceSim::new(spec.clone());
            if let Some(p) = plan {
                dev.set_fault_plan(p);
            }
            let s = dev.create_stream();
            let mut out = vec![0u64; n];
            let end = {
                let g = crate::memory::GlobalMem::new(&mut out);
                dev.try_launch_at(
                    s,
                    LaunchConfig::over_threads(n as u64, 64),
                    &|blk: &mut BlockCtx<'_>| {
                        blk.for_each_thread(|t| {
                            let i = t.global_thread_id() as usize;
                            if i < n {
                                g.store(i, i as u64 * 5);
                                t.charge(200.0);
                            }
                        });
                    },
                    0.0,
                )
                .unwrap()
                .end_ms
            };
            (out, end)
        };
        let (healthy_out, healthy_end) = run(None);
        let (degraded_out, degraded_end) = run(Some(plan));
        assert_eq!(healthy_out, degraded_out, "degradation is timing-only");
        assert!(
            degraded_end > healthy_end,
            "degraded {degraded_end} vs healthy {healthy_end}"
        );
        let mut dev = DeviceSim::new(spec);
        dev.set_fault_plan(plan);
        assert!(dev.fault_counters().degraded_sms > 0);
    }

    #[test]
    fn stall_window_pushes_dispatches_past_it() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(40, 256);
        let solo = solo_report(&spec, cfg, 50_000.0);
        let mut dev = DeviceSim::new(spec);
        dev.set_fault_plan(FaultPlan::healthy(1).with_stall(2.0, 3.0));
        let s = dev.create_stream();
        let j = dev.try_replay_named(s, &solo, 2.5, "replay").unwrap();
        assert_eq!(j.start_ms, 5.0, "start pushed to the stall window's end");
        assert_eq!(dev.fault_counters().stalled_dispatches, 1);
        // Dispatches outside the window are untouched.
        let j2 = dev.try_replay_named(s, &solo, 0.0, "replay").unwrap();
        assert_eq!(j2.start_ms, j.end_ms);
    }

    #[test]
    fn killed_device_refuses_work_and_loses_mid_run_jobs_without_commit() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(40, 256);
        let solo = solo_report(&spec, cfg, 200_000.0);
        assert!(solo.elapsed_ms() > 0.05, "need a job long enough to cross the kill tick");
        let mut dev = DeviceSim::new(spec);
        dev.set_fault_plan(FaultPlan::healthy(1).with_kill_at(solo.elapsed_ms() * 0.5));
        let s = dev.create_stream();
        // Starts before the kill tick but would finish after it: lost.
        let err = dev.try_replay_named(s, &solo, 0.0, "replay").unwrap_err();
        assert!(matches!(err, SimError::DeviceLost { .. }));
        assert!(err.is_retryable());
        // Nothing committed: the device looks untouched.
        assert_eq!(dev.jobs_done(), 0);
        assert_eq!(dev.stream_ready_ms(s), 0.0);
        assert_eq!(dev.makespan_ms(), 0.0);
        // At/after the kill tick the device is dead to new work too.
        assert!(dev.is_dead_at(solo.elapsed_ms()));
        let err = dev
            .try_replay_named(s, &solo, solo.elapsed_ms(), "replay")
            .unwrap_err();
        assert!(matches!(err, SimError::DeviceLost { .. }));
        assert_eq!(dev.fault_counters().lost_dispatches, 2);
        // A short job that completes before the kill tick still runs.
        let quick = solo_report(dev.spec(), LaunchConfig::new(8, 64), 10.0);
        let j = dev.try_replay_named(s, &quick, 0.0, "replay").unwrap();
        assert!(j.end_ms < solo.elapsed_ms() * 0.5);
        assert_eq!(dev.jobs_done(), 1);
    }

    #[test]
    fn transient_failures_are_seed_deterministic_and_burn_overhead() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(8, 64);
        let solo = solo_report(&spec, cfg, 100.0);
        let plan = FaultPlan::healthy(21).with_flaky_launches(0.4);
        let run = |plan: FaultPlan| {
            let mut dev = DeviceSim::new(spec.clone());
            dev.set_fault_plan(plan);
            let s = dev.create_stream();
            let pattern: Vec<bool> = (0..32)
                .map(|_| dev.try_replay_named(s, &solo, 0.0, "replay").is_ok())
                .collect();
            (pattern, dev.stream_ready_ms(s), dev.fault_counters())
        };
        let (pat_a, ready_a, counters_a) = run(plan);
        let (pat_b, ready_b, counters_b) = run(plan);
        assert_eq!(pat_a, pat_b, "same seed, same failure sequence");
        assert_eq!(ready_a, ready_b, "bitwise-identical timelines");
        assert_eq!(counters_a, counters_b);
        let fails = pat_a.iter().filter(|ok| !**ok).count();
        assert!(fails > 3 && fails < 29, "~40% failures, got {fails}/32");
        assert_eq!(counters_a.transient_launch_failures, fails as u64);
        // A failed attempt burned launch overhead at the stream head.
        let mut healthy = DeviceSim::new(spec.clone());
        let hs = healthy.create_stream();
        for _ in pat_a.iter().filter(|ok| **ok) {
            healthy.replay_named(hs, &solo, 0.0, "replay");
        }
        assert!(
            ready_a > healthy.stream_ready_ms(hs),
            "flaky stream {ready_a} should trail healthy {}",
            healthy.stream_ready_ms(hs)
        );
        // A different seed draws a different sequence.
        let (pat_c, _, _) = run(FaultPlan::healthy(22).with_flaky_launches(0.4));
        assert_ne!(pat_a, pat_c);
    }

    #[test]
    fn infallible_paths_panic_on_injected_faults() {
        let spec = GpuSpec::v100();
        let solo = solo_report(&spec, LaunchConfig::new(8, 64), 100.0);
        let mut dev = DeviceSim::new(spec);
        dev.set_fault_plan(FaultPlan::healthy(1).with_kill_at(0.0));
        let s = dev.create_stream();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.replay_named(s, &solo, 0.0, "replay");
        }));
        assert!(r.is_err(), "replay_named must panic on a dead device");
    }

    #[test]
    fn unknown_stream_panics() {
        let spec = GpuSpec::test_tiny();
        let mut dev = DeviceSim::new(spec.clone());
        let mut other = DeviceSim::new(spec);
        let s = other.create_stream();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = dev.launch(s, LaunchConfig::new(1, 32), &charge_kernel(1.0));
        }));
        assert!(r.is_err());
    }
}
