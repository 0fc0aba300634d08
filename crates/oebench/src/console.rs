//! Standard output of the command-line tools (`oebench`, `repro`,
//! `oeb-profile`, `trace_check`).
//!
//! A reader that stops reading is not a failure of the run:
//! `oeb-profile trace.jsonl | head` closes the pipe after ten lines. The
//! first write that meets the closed pipe (`BrokenPipe`) turns stdout
//! off for the rest of the process; the run still writes its files and
//! exits with the code it would have had. Any other write error ends
//! the process with exit code 1 and a message on stderr, never a panic.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write found the reader gone. It publishes no other data.
static READER_GONE: AtomicBool = AtomicBool::new(false);

/// Writes `text` to stdout and flushes it. See the module docs for a
/// closed pipe and for other errors.
pub fn print(text: &str) {
    if let Err(e) = write_to(&mut io::stdout().lock(), text, &READER_GONE) {
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// Writes `text` to `out` unless `reader_gone` is set; sets it instead
/// of failing when the write finds the pipe closed.
fn write_to(out: &mut impl Write, text: &str, reader_gone: &AtomicBool) -> io::Result<()> {
    if reader_gone.load(Ordering::Relaxed) {
        return Ok(());
    }
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
            reader_gone.store(true, Ordering::Relaxed);
            Ok(())
        }
        result => result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that fails every write with `kind` and counts the calls.
    struct Failing {
        kind: io::ErrorKind,
        calls: usize,
    }

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            Err(io::Error::from(self.kind))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_turns_stdout_off() {
        let gone = AtomicBool::new(false);
        let mut out = Failing {
            kind: io::ErrorKind::BrokenPipe,
            calls: 0,
        };
        assert!(write_to(&mut out, "a\n", &gone).is_ok());
        assert!(write_to(&mut out, "b\n", &gone).is_ok());
        assert_eq!(out.calls, 1, "the second write must not reach the pipe");
    }

    #[test]
    fn other_write_errors_are_returned() {
        let gone = AtomicBool::new(false);
        let mut out = Failing {
            kind: io::ErrorKind::StorageFull,
            calls: 0,
        };
        let err = write_to(&mut out, "a\n", &gone).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(!gone.load(Ordering::Relaxed));
    }
}
