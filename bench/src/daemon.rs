//! Driving `pashd` as a separate process: spawn, seed, closed-loop
//! request phases with a fixed request count, and teardown.

use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pash::runtime::service::{CacheTier, Client, RunRequest, RunResponse};

use crate::oracle::Observed;
use crate::runner::Bins;
use crate::workloads::{fresh_out_name, fresh_text, Inputs, Planned, Workload, STDIN_FILE, W};

/// Socket path, relative to the work directory the harness runs in
/// (a Unix socket path is capped near 100 bytes; a checkout's
/// absolute path may not fit).
pub const SOCKET: &str = "pashd.sock";

/// A running `pashd`, stopped (and waited for) on drop.
pub struct Daemon {
    child: Child,
}

impl Daemon {
    /// Spawns `pashd --max-concurrent 2` on a fresh cache directory
    /// and returns once it answers a `Metrics` request.
    pub fn spawn(bins: &Bins, cache_dir: &Path) -> io::Result<Daemon> {
        let _ = std::fs::remove_file(SOCKET);
        if cache_dir.exists() {
            std::fs::remove_dir_all(cache_dir)?;
        }
        let child = Command::new(&bins.pashd)
            .args(["--socket", SOCKET, "--max-concurrent", "2", "--cache-dir"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon { child };
        std::fs::write("pashd.pid", daemon.child.id().to_string())?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut c) = Client::connect(Path::new(SOCKET)) {
                if c.metrics().is_ok() {
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!("pashd exited early: {status}")));
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "pashd did not answer within 20 s",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Seeds the daemon's template filesystem with every input file.
    pub fn seed(&self, inputs: &Inputs) -> io::Result<()> {
        let mut c = Client::connect(Path::new(SOCKET))?;
        for (path, bytes) in &inputs.files {
            if path != STDIN_FILE {
                c.put_file(path, bytes.as_ref().clone())?;
            }
        }
        Ok(())
    }

    pub fn metrics_json(&self) -> io::Result<String> {
        Client::connect(Path::new(SOCKET))?.metrics()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let asked = Client::connect(Path::new(SOCKET))
            .and_then(|mut c| c.shutdown())
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(5);
        while asked && Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file("pashd.pid");
        let _ = std::fs::remove_file(SOCKET);
    }
}

/// Extracts the number after `"key":` from the daemon's flat Metrics
/// JSON.
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One completed request as the client saw it.
pub struct Reply {
    pub latency: Duration,
    pub tier: CacheTier,
    pub compile_micros: u64,
}

/// The outcome of one closed-loop phase.
pub struct Phase {
    pub replies: Vec<Reply>,
    /// Replies that differed from the host reference.
    pub wrong: usize,
    /// Requests that errored or were refused (no reply to check).
    pub refused: usize,
    pub elapsed: Duration,
}

impl Phase {
    pub fn attempted(&self) -> usize {
        self.replies.len() + self.refused
    }

    pub fn failed(&self) -> usize {
        self.refused + self.wrong
    }

    /// Completed requests per second of the whole phase.
    pub fn rps(&self) -> f64 {
        self.replies.len() as f64 / self.elapsed.as_secs_f64()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.replies
            .iter()
            .map(|r| r.latency.as_secs_f64() * 1e3)
            .collect()
    }
}

/// Sends one planned request on a fresh connection (as a CLI client
/// would) and returns the reply with what it carried, for the caller
/// to check against the host reference of its script.
pub fn request_unchecked(
    workload: &Workload,
    stdin: &[u8],
    planned: Planned,
) -> io::Result<(Reply, Observed)> {
    let script = &workload.scripts[planned.script];
    let text = match planned.fresh {
        Some(id) => fresh_text(&script.text, id),
        None => script.text.clone(),
    };
    let req = RunRequest {
        script: text,
        backend: "threads".to_string(),
        width: W as u32,
        split: workload.split,
        stdin: stdin.to_vec(),
    };
    let start = Instant::now();
    let resp = Client::connect(Path::new(SOCKET))?.run(req)?;
    let latency = start.elapsed();
    let reply = Reply {
        latency,
        tier: resp.tier,
        compile_micros: resp.compile_micros,
    };
    Ok((reply, observed(resp, planned.fresh)))
}

fn observed(resp: RunResponse, fresh: Option<u64>) -> Observed {
    let renamed = fresh.map(fresh_out_name);
    Observed {
        status: resp.status,
        stdout: resp.stdout,
        files: resp
            .files
            .into_iter()
            .map(|(name, bytes)| {
                if Some(&name) == renamed.as_ref() {
                    ("out.txt".to_string(), bytes)
                } else {
                    (name, bytes)
                }
            })
            .collect(),
    }
}

/// Runs `schedule` as a closed loop with `clients` client threads:
/// client `j` sends requests `j, j + clients, …`, each only after its
/// previous reply. The request count is fixed up front, so a slow
/// request cannot quantise the rate.
pub fn closed_loop(
    workload: &Workload,
    stdin: &[u8],
    references: &[Observed],
    schedule: &[Planned],
    clients: usize,
) -> Phase {
    let start = Instant::now();
    let per_client: Vec<Vec<io::Result<(Reply, bool)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|j| {
                scope.spawn(move || {
                    schedule
                        .iter()
                        .skip(j)
                        .step_by(clients)
                        .map(|&p| {
                            let (reply, observed) = request_unchecked(workload, stdin, p)?;
                            Ok((reply, observed == references[p.script]))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut phase = Phase {
        replies: Vec::new(),
        wrong: 0,
        refused: 0,
        elapsed,
    };
    for r in per_client.into_iter().flatten() {
        match r {
            Ok((reply, ok)) => {
                phase.replies.push(reply);
                phase.wrong += usize::from(!ok);
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                phase.refused += 1;
            }
        }
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_number_reads_flat_and_nested_keys() {
        let j = "{\"tier1_hits\":12,\"errors\":0,\"latency\":{\"count\":7,\"p50_us\":1500}}";
        assert_eq!(json_number(j, "tier1_hits"), Some(12.0));
        assert_eq!(json_number(j, "errors"), Some(0.0));
        assert_eq!(json_number(j, "p50_us"), Some(1500.0));
        assert_eq!(json_number(j, "missing"), None);
    }
}
