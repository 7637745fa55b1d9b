//! `repro run` turns an invalid spec into an error exit, never a panic.

use std::process::Command;

#[test]
fn repro_run_rejects_a_zero_size_benchmark_with_an_error() {
    let dir = std::env::temp_dir().join(format!("ax_repro_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("zero_matmul.json");
    std::fs::write(
        &spec,
        r#"{"name": "zero", "benchmarks": [{"kind": "matmul", "size": 0}], "agents": ["q-learning"]}"#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--no-out", "run"])
        .arg(&spec)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("`matmul` has size 0"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
