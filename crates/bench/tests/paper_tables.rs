//! Golden paper tables: every simulator-driven experiment binary (`t1`–`t9`,
//! `f1`–`f4`) prints a deterministic markdown table, and that table must
//! stay byte-equal to its committed copy under `tests/golden/<bin>.txt`.
//!
//! A runtime refactor that changes a round count, a fast flag, a latency
//! or a checker verdict anywhere in the paper's experiments fails here.
//! `t10_exhaustive` is left out: it takes minutes and is covered by the
//! explore crate's own tests. After a deliberate change to a table,
//! regenerate its golden file with
//! `cargo run --release -p lucky-bench --bin <bin> > crates/bench/tests/golden/<bin>.txt`.

use std::path::Path;
use std::process::Command;

fn assert_matches_golden(bin: &str, exe: &str) {
    let out = Command::new(exe).output().unwrap_or_else(|e| panic!("run {bin}: {e}"));
    assert!(out.status.success(), "{bin} exited with {}", out.status);
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{bin}.txt"));
    let want = std::fs::read(&golden).unwrap_or_else(|e| panic!("read {}: {e}", golden.display()));
    if out.stdout != want {
        panic!(
            "{bin} output differs from {}\n--- got ---\n{}",
            golden.display(),
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

macro_rules! golden {
    ($($bin:ident),* $(,)?) => {
        $(
            #[test]
            fn $bin() {
                assert_matches_golden(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
            }
        )*
    };
}

golden!(
    t1_fast_path,
    t2_bound_validation,
    t3_comparison,
    t4_trading_reads,
    t5_fast_write_bound,
    t6_tworound,
    t7_regular,
    t8_ghost,
    t9_freezing,
    f1_latency_contention,
    f2_latency_synchrony,
    f3_scalability,
    f4_reader_scaling,
);
