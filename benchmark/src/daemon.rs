//! The real binaries the served workloads run against: `boltc` to train
//! and compile, `boltd` as the system under test, `boltctl` to read its
//! state — and the guards that make sure none of it outlives the run.

use crate::models::{ModelSpec, MODEL_SEED};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// How long a starting daemon may take to accept its first connection.
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// Paths of the repo binaries.
#[derive(Clone, Debug)]
pub struct Tools {
    boltc: PathBuf,
    boltd: PathBuf,
    boltctl: PathBuf,
}

impl Tools {
    /// Finds `boltc`, `boltd` and `boltctl`: in `$BOLT_BENCH_BIN_DIR` if
    /// set, else beside the running executable (where `run.sh` builds both
    /// workspaces into one target directory).
    ///
    /// # Errors
    ///
    /// Names the first binary that is missing.
    pub fn locate() -> Result<Self, String> {
        let dir = match std::env::var_os("BOLT_BENCH_BIN_DIR") {
            Some(dir) => PathBuf::from(dir),
            None => std::env::current_exe()
                .map_err(|e| format!("current_exe: {e}"))?
                .parent()
                .map(Path::to_owned)
                .ok_or("executable has no parent directory")?,
        };
        let find = |name: &str| {
            let path = dir.join(name);
            if path.is_file() {
                Ok(path)
            } else {
                Err(format!(
                    "{} not found: build the repo binaries first (benchmark/run.sh does)",
                    path.display()
                ))
            }
        };
        Ok(Self {
            boltc: find("boltc")?,
            boltd: find("boltd")?,
            boltctl: find("boltctl")?,
        })
    }

    /// `boltc train` for `spec`, writing the forest JSON to `out`.
    ///
    /// # Errors
    ///
    /// The tool's stderr on a nonzero exit.
    pub fn train(&self, spec: &ModelSpec, out: &Path) -> Result<(), String> {
        run(Command::new(&self.boltc)
            .arg("train")
            .args(["--workload", spec.boltc_workload])
            .args(["--samples", &spec.train_samples.to_string()])
            .args(["--trees", &spec.trees.to_string()])
            .args(["--height", &spec.height.to_string()])
            .args(["--seed", &MODEL_SEED.to_string()])
            .arg("--out")
            .arg(out))
        .map(drop)
    }

    /// `boltc compile` of `forest` into the BLT1 artifact `out`.
    ///
    /// # Errors
    ///
    /// The tool's stderr on a nonzero exit.
    pub fn compile(
        &self,
        spec: &ModelSpec,
        forest: &Path,
        version: u32,
        out: &Path,
    ) -> Result<(), String> {
        run(Command::new(&self.boltc)
            .arg("compile")
            .arg("--forest")
            .arg(forest)
            .args(["--threshold", &spec.threshold.to_string()])
            .args(["--model-version", &version.to_string()])
            .arg("--out")
            .arg(out))
        .map(drop)
    }
}

/// Runs a tool to completion and returns its stdout.
fn run(command: &mut Command) -> Result<String, String> {
    let output = command
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("{command:?}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{command:?} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// A directory under the current one that holds everything a run writes —
/// sockets, model fleets, logs — and is removed when dropped. Paths stay
/// relative so Unix socket paths are short wherever the checkout lives.
#[derive(Debug)]
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `BASE/rPID.N`, unique within and across processes.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn create(base: &Path) -> Result<Self, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        // Relaxed: a counter, publishes nothing.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("r{}.{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("mkdir {}: {e}", path.display()))?;
        Ok(Self(path))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What `boltctl status` reported.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Status {
    /// The scan kernel the daemon selected.
    pub kernel: String,
    /// Artifacts unmapped by the LRU policy since start.
    pub evictions: u64,
    /// Artifacts mapped again after an eviction.
    pub thrash_reloads: u64,
    /// High-water mark of mapped artifact bytes.
    pub resident_bytes_hwm: u64,
}

impl Status {
    /// Parses `boltctl status` output: `scan kernel: K`, then `resident: N
    /// model(s), B bytes (high-water H); evictions: E (T thrash reloads)`.
    fn parse(text: &str) -> Result<Self, String> {
        let kernel = text
            .lines()
            .find_map(|l| l.strip_prefix("scan kernel: "))
            .ok_or("boltctl status: no `scan kernel:` line")?;
        let resident = text
            .lines()
            .find(|l| l.starts_with("resident: "))
            .ok_or("boltctl status: no `resident:` line")?;
        let numbers: Vec<u64> = resident
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|n| n.parse().ok())
            .collect();
        let [_models, _bytes, hwm, evictions, thrash] = numbers[..] else {
            return Err(format!("boltctl status: unexpected line {resident:?}"));
        };
        Ok(Self {
            kernel: kernel.trim().to_owned(),
            evictions,
            thrash_reloads: thrash,
            resident_bytes_hwm: hwm,
        })
    }
}

/// How to start a daemon.
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonOptions<'a> {
    /// `--default NAME`: where legacy (unrouted) frames go.
    pub default_model: Option<&'a str>,
    /// `--resident-bytes N`.
    pub resident_bytes: Option<u64>,
    /// Also listen on `--tcp 127.0.0.1:0`.
    pub tcp: bool,
}

/// A running `boltd --model-dir`. Killed and reaped when dropped, which
/// covers normal exit, `?` returns, panics and (through the stop flag)
/// SIGINT.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    boltctl: PathBuf,
    /// The data socket.
    pub socket: PathBuf,
    /// The admin socket.
    pub admin: PathBuf,
    /// The TCP listener's address, when one was asked for.
    pub tcp: Option<SocketAddr>,
}

impl Daemon {
    /// Starts `boltd --model-dir DIR/models` with its sockets and log in
    /// `dir`, and waits until the data socket accepts.
    ///
    /// # Errors
    ///
    /// Spawn failure, early exit, or no listener within the timeout — with
    /// the daemon's log attached.
    pub fn start(tools: &Tools, dir: &Path, options: DaemonOptions<'_>) -> Result<Self, String> {
        let (socket, admin, log) = (
            dir.join("s.sock"),
            dir.join("a.sock"),
            dir.join("boltd.log"),
        );
        let log_file =
            std::fs::File::create(&log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let mut command = Command::new(&tools.boltd);
        command
            .arg("--model-dir")
            .arg(dir.join("models"))
            .arg("--socket")
            .arg(&socket)
            .arg("--admin-socket")
            .arg(&admin);
        if let Some(name) = options.default_model {
            command.args(["--default", name]);
        }
        if let Some(bytes) = options.resident_bytes {
            command.args(["--resident-bytes", &bytes.to_string()]);
        }
        if options.tcp {
            command.args(["--tcp", "127.0.0.1:0"]);
        }
        let child = command
            .stdin(Stdio::null())
            .stdout(log_file.try_clone().map_err(|e| e.to_string())?)
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", tools.boltd.display()))?;
        let mut daemon = Self {
            child,
            boltctl: tools.boltctl.clone(),
            socket,
            admin,
            tcp: None,
        };
        let read_log = || std::fs::read_to_string(&log).unwrap_or_default();
        let started = Instant::now();
        loop {
            if let Some(status) = daemon.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("boltd exited at start ({status}): {}", read_log()));
            }
            // The TCP line is printed after the Unix socket is bound, so
            // seeing it (when asked for) means both listeners are up.
            let tcp = read_log()
                .lines()
                .find_map(|l| l.strip_prefix("boltd also listening on tcp "))
                .and_then(|addr| addr.trim().parse().ok());
            let ready = if options.tcp {
                tcp.is_some()
            } else {
                std::os::unix::net::UnixStream::connect(&daemon.socket).is_ok()
            };
            if ready {
                daemon.tcp = tcp;
                return Ok(daemon);
            }
            if started.elapsed() > START_TIMEOUT {
                return Err(format!("boltd did not listen in time: {}", read_log()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The daemon's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn ctl(&self, command: &str) -> Result<String, String> {
        run(Command::new(&self.boltctl)
            .arg("--socket")
            .arg(&self.admin)
            .arg(command))
    }

    /// `boltctl status`.
    ///
    /// # Errors
    ///
    /// The tool failed or printed something unexpected.
    pub fn status(&self) -> Result<Status, String> {
        Status::parse(&self.ctl("status")?)
    }

    /// Samples the daemon has booked so far: the `TOTAL` row of
    /// `boltctl drain-stats`.
    ///
    /// # Errors
    ///
    /// The tool failed or printed no `TOTAL` row.
    pub fn requests_booked(&self) -> Result<u64, String> {
        let text = self.ctl("drain-stats")?;
        text.lines()
            .find_map(|l| l.strip_prefix("TOTAL"))
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| format!("boltctl drain-stats: no TOTAL row in {text:?}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_text_parses() {
        let text = "scan kernel: avx512\n\
            resident: 4 model(s), 1097232 bytes (high-water 1371540); evictions: 912 (896 thrash reloads)\n\
            MODEL  VERSION ENGINE RESIDENT BYTES REQUESTS\n";
        assert_eq!(
            Status::parse(text),
            Ok(Status {
                kernel: "avx512".into(),
                evictions: 912,
                thrash_reloads: 896,
                resident_bytes_hwm: 1_371_540,
            })
        );
        assert!(Status::parse("resident: 1 model(s)").is_err());
        assert!(Status::parse("scan kernel: avx2\nresident: garbage").is_err());
    }

    #[test]
    fn run_directories_are_unique_and_removed() {
        let base = Path::new("out").join(format!("rd-test-{}", std::process::id()));
        let (a, b) = (
            RunDir::create(&base).expect("mkdir"),
            RunDir::create(&base).expect("mkdir"),
        );
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_owned();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.exists());
        drop(b);
        let _ = std::fs::remove_dir(&base);
    }
}
