//! A reader that stops reading is not a failure: `oebench` printing
//! into a pipe whose read end is closed must exit with its own code,
//! not panic on the write.

use std::process::{Command, Stdio};

#[test]
fn list_into_a_closed_pipe_exits_zero_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_oebench"))
        .arg("list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run oebench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
