//! Integration: the artifact's file pipeline — write a matrix as
//! MatrixMarket, read it back, and run the full load-balanced SpMV on it,
//! exactly as `run.sh` does per `.mtx` file.

use loops::schedule::ScheduleKind;
use simt::GpuSpec;

#[test]
fn mtx_roundtrip_then_spmv() {
    let a = sparse::gen::powerlaw(500, 400, 6_000, 2.0, 90);
    let mut buf = Vec::new();
    sparse::mm::write_csr(&mut buf, &a).unwrap();
    let back = sparse::mm::read_csr(buf.as_slice()).unwrap();
    assert_eq!(a.rows(), back.rows());
    assert_eq!(a.cols(), back.cols());
    assert_eq!(a.nnz(), back.nnz());
    assert_eq!(a.row_offsets(), back.row_offsets());
    assert_eq!(a.col_indices(), back.col_indices());
    // Values go through decimal text; compare with tolerance.
    for (u, v) in a.values().iter().zip(back.values()) {
        assert!((u - v).abs() < 1e-5);
    }

    let x = sparse::dense::test_vector(back.cols());
    let run = kernels::spmv(&GpuSpec::v100(), &back, &x, ScheduleKind::MergePath).unwrap();
    let err = kernels::spmv::max_rel_error(&run.y, &back.spmv_ref(&x));
    assert!(err < 2e-3);
}

#[test]
fn mtx_file_on_disk_like_run_sh() {
    let dir = std::env::temp_dir().join("loops_mtx_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("test_matrix.mtx");
    let a = sparse::gen::uniform(200, 200, 2_000, 91);
    {
        let f = std::fs::File::create(&path).unwrap();
        sparse::mm::write_csr(std::io::BufWriter::new(f), &a).unwrap();
    }
    let back = sparse::mm::read_csr_path(&path).unwrap();
    assert_eq!(back.nnz(), a.nnz());
    // "Some runs are expected to fail as they are not in proper
    // MatrixMarket format" — and must fail *cleanly*, not panic.
    std::fs::write(dir.join("broken.mtx"), "this is not a matrix\n").unwrap();
    let err = sparse::mm::read_csr_path(dir.join("broken.mtx"));
    assert!(matches!(err, Err(sparse::Error::Parse { .. })));
    let gone = sparse::mm::read_csr_path(dir.join("missing.mtx"));
    assert!(matches!(gone, Err(sparse::Error::Io(_))));
}

#[test]
fn symmetric_mtx_expands_before_scheduling() {
    let src = "%%MatrixMarket matrix coordinate real symmetric\n\
        4 4 4\n\
        1 1 2.0\n\
        2 1 1.0\n\
        3 2 1.0\n\
        4 3 1.0\n";
    let a = sparse::mm::read_csr(src.as_bytes()).unwrap();
    assert_eq!(a.nnz(), 7); // 3 off-diagonal pairs + 1 diagonal
    let x = vec![1.0f32; 4];
    let run = kernels::spmv(&GpuSpec::test_tiny(), &a, &x, ScheduleKind::WarpMapped).unwrap();
    assert_eq!(run.y, a.spmv_ref(&x));
}

/// Hostile size lines: the reader stores indices as `u32`, so a declared
/// dimension beyond `u32::MAX` must be refused up front rather than
/// truncated or allocated.
fn assert_size_line_rejected(src: &str) {
    match sparse::mm::read_csr(src.as_bytes()) {
        Err(sparse::Error::Parse { line, msg }) => {
            assert_eq!(line, 2, "error should point at the size line: {msg}");
            assert!(msg.contains("u32"), "unexpected message: {msg}");
        }
        other => panic!("expected a size-line parse error, got {other:?}"),
    }
}

#[test]
fn column_index_past_u32_is_rejected_not_truncated() {
    // Column 4294967297 = 2^32 + 1 used to wrap to column 0 and parse Ok.
    assert_size_line_rejected(
        "%%MatrixMarket matrix coordinate real general\n\
         1 4294967297 1\n\
         1 4294967297 1.0\n",
    );
}

#[test]
fn huge_declared_row_count_is_an_error_not_an_abort() {
    // 10^11 rows used to reach `coo_to_csr`, whose 800 GB row-offset
    // allocation aborted the process.
    assert_size_line_rejected(
        "%%MatrixMarket matrix coordinate real general\n\
         100000000000 1 1\n\
         1 1 1.0\n",
    );
}

#[test]
fn rows_out_of_proportion_to_the_entries_are_an_error_not_an_abort() {
    // 4·10^9 rows pass the u32 check, but their CSR row offsets alone
    // are a 32 GB allocation for a one-entry file: that used to abort.
    match sparse::mm::read_csr(
        "%%MatrixMarket matrix coordinate real general\n\
         4000000000 4000000000 1\n\
         1 1 1.0\n"
            .as_bytes(),
    ) {
        Err(sparse::Error::Parse { line, msg }) => {
            assert_eq!(line, 2, "error should point at the size line: {msg}");
            assert!(msg.contains("4000000000 rows for 1 entries"), "{msg}");
        }
        other => panic!("expected a size-line parse error, got {other:?}"),
    }
    // Empty rows in proportion still parse.
    let a = sparse::mm::read_csr(
        "%%MatrixMarket matrix coordinate real general\n\
         1048640 3 1\n\
         1048640 2 1.0\n"
            .as_bytes(),
    )
    .unwrap();
    assert_eq!((a.rows(), a.nnz()), (1_048_640, 1));
}

#[test]
fn dimensions_at_the_u32_limit_still_parse() {
    // The largest dimension whose 1-based indices fit: u32::MAX. No entries,
    // so the (single-row) CSR stays small.
    let coo = sparse::mm::read_coo(
        "%%MatrixMarket matrix coordinate real general\n\
         1 4294967295 1\n\
         1 4294967295 2.5\n"
            .as_bytes(),
    )
    .unwrap();
    assert_eq!(coo.cols(), u32::MAX as usize);
    assert_eq!(coo.col_indices(), &[u32::MAX - 1]);
}
