//! A benchmark whose measured processes all die must say so: it ends
//! promptly, prints `correct: false` as its last line and exits non-zero.

use std::process::Command;

#[test]
fn children_killed_by_a_memory_limit_fail_the_invocation() {
    // 300 MB of address space is far below what the 1M-phone fleet
    // needs, so every child aborts on allocation failure in `Platform::new`
    // while the parent, which builds no fleet, keeps running.
    let out = Command::new("sh")
        .args([
            "-c",
            "ulimit -v 300000 && exec \"$0\" --workload fleet_1m --seconds 1 --trace 0",
            env!("CARGO_BIN_EXE_simbench"),
        ])
        .output()
        .expect("sh runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":3,"),
        "{stdout}"
    );
    assert!(stdout.contains("CHECK FAILED: fleet_1m run 1"), "{stdout}");
}
