//! `repro run` turns an invalid spec into an error exit, never a panic
//! or an abort.

use std::process::Command;

#[test]
fn repro_run_rejects_bad_specs_with_an_error() {
    let deep = "[".repeat(200_000);
    let cases = [
        (
            "zero_matmul.json",
            r#"{"name": "zero", "benchmarks": [{"kind": "matmul", "size": 0}], "agents": ["q-learning"]}"#,
            "`matmul` has size 0",
        ),
        // Past the JSON parser's depth cap: an error, not a stack overflow.
        ("deep.json", deep.as_str(), "nesting deeper than 128 levels"),
    ];
    let dir = std::env::temp_dir().join(format!("ax_repro_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (file_name, spec, message) in cases {
        let path = dir.join(file_name);
        std::fs::write(&path, spec).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--no-out", "run"])
            .arg(&path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{file_name}: {stderr}");
        assert!(stderr.contains("error: bad spec"), "{file_name}: {stderr}");
        assert!(stderr.contains(message), "{file_name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{file_name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
