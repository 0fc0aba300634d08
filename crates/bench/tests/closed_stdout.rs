//! `trace_check` and `oeb-profile` printing into a pipe whose read end
//! is closed (`oeb-profile trace.jsonl | head`) must exit with the code
//! the run would have had and still write their files, not panic on
//! the write.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// A valid two-span trace in a file of its own.
fn trace_file(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "oeb-closed-stdout-{tag}-{}.jsonl",
        std::process::id()
    ));
    let text = concat!(
        r#"{"type":"span","id":0,"slot":0,"seq":1,"name":"cell.run","start_us":0,"dur_us":9,"start_ns":0,"dur_ns":9000}"#,
        "\n",
        r#"{"type":"span","id":1,"slot":0,"seq":0,"name":"evaluate.train","start_us":1,"dur_us":5,"start_ns":1000,"dur_ns":5000}"#,
        "\n",
        r#"{"type":"footer","schema":2,"events":2,"dropped":0}"#,
        "\n",
    );
    std::fs::write(&path, text).expect("write the trace");
    path
}

/// Runs `bin` with `args`, stdout a pipe whose read end is closed.
fn run_into_closed_pipe(bin: &str, args: &[&std::ffi::OsStr]) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    Command::new(bin)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run the binary")
}

#[test]
fn trace_check_into_a_closed_pipe_keeps_exit_zero() {
    let trace = trace_file("check");
    let out = run_into_closed_pipe(env!("CARGO_BIN_EXE_trace_check"), &[trace.as_os_str()]);
    let _ = std::fs::remove_file(&trace);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn oeb_profile_into_a_closed_pipe_still_writes_its_profile() {
    let trace = trace_file("profile");
    let profile = trace.with_extension("json");
    let out = run_into_closed_pipe(
        env!("CARGO_BIN_EXE_oeb-profile"),
        &[trace.as_os_str(), "--out".as_ref(), profile.as_os_str()],
    );
    let written = std::fs::read_to_string(&profile);
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&profile);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        written.is_ok_and(|json| json.contains("\"schema\"")),
        "PROFILE.json was not written"
    );
}
