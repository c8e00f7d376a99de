//! Runs one `diva` child process and reads its resource usage.
//!
//! The child is reaped with `wait4(2)`, which returns its `rusage`:
//! user+sys CPU time and peak resident set size. The standard library
//! has no portable way to read either, so this module declares the
//! one foreign function it needs.

use std::fs::File;
use std::io;
use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::Duration;

use diva_obs::Stopwatch;

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads Linux's `struct rusage` layout");

/// `struct timeval` on Linux.
#[repr(C)]
#[derive(Debug, Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

impl Timeval {
    fn duration(&self) -> Duration {
        let micros = i128::from(self.tv_sec) * 1_000_000 + i128::from(self.tv_usec);
        Duration::from_micros(u64::try_from(micros).unwrap_or(0))
    }
}

/// `struct rusage` on Linux: two timevals, then fourteen longs, of
/// which only the first (`ru_maxrss`, in KiB) is read.
#[repr(C)]
#[derive(Debug, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    _ru_rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// Blocks until child `pid` exits, then returns its raw wait status
/// and resource usage.
#[allow(unsafe_code)]
fn wait_child(pid: u32) -> io::Result<(c_int, Rusage)> {
    let pid = c_int::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: both out-pointers are live, exclusive locals laid out as wait4(2) writes
        // them (int, Linux rusage); `pid` is our child and nothing else reaps it.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            return Ok((status, usage));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// What one child process cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Wall time from spawn to reap.
    pub wall: Duration,
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size, KiB.
    pub maxrss_kib: u64,
}

/// Runs `program args…` to completion with stdout and stderr written
/// to the given files, and returns its exit status and usage.
pub fn run(
    program: &Path,
    args: &[String],
    stdout: &Path,
    stderr: &Path,
) -> io::Result<(ExitStatus, Usage)> {
    let mut cmd = Command::new(program);
    cmd.args(args).stdin(Stdio::null()).stdout(File::create(stdout)?).stderr(File::create(stderr)?);
    let clock = Stopwatch::start();
    let child = cmd.spawn()?;
    let (status, usage) = wait_child(child.id())?;
    let wall = clock.elapsed();
    Ok((
        ExitStatus::from_raw(status),
        Usage {
            wall,
            cpu: usage.ru_utime.duration() + usage.ru_stime.duration(),
            maxrss_kib: u64::try_from(usage.ru_maxrss).unwrap_or(0),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait4_reports_exit_status_and_peak_rss() {
        let dir = std::env::temp_dir().join(format!("diva-benchmark-child-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (out, err) = (dir.join("out"), dir.join("err"));
        let sh = Path::new("sh");
        let (status, usage) = run(sh, &["-c".into(), "true".into()], &out, &err).expect("sh runs");
        assert!(status.success());
        assert!(usage.maxrss_kib > 0, "{usage:?}");
        let (status, _) = run(sh, &["-c".into(), "exit 3".into()], &out, &err).expect("sh runs");
        assert_eq!(status.code(), Some(3));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
