//! The host oracle: the unmodified script under `/bin/sh` with the
//! host's own utilities and `LC_ALL=C`.
//!
//! Its output is the reference every sample on every backend is
//! compared against, so the benchmark's notion of "correct" shares no
//! code with the program under test.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use pash::core::plan::{ExecutionPlan, PlanOp};

/// Everything a run of a script leaves behind: exit status, stdout,
/// and every file it created in the data directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Observed {
    pub status: i32,
    pub stdout: Vec<u8>,
    pub files: BTreeMap<String, Vec<u8>>,
}

impl Observed {
    /// A one-line description of the first difference from
    /// `reference`, for failure reports and `KNOWN_DIVERGENCES.md`.
    pub fn first_difference(&self, reference: &Observed) -> Option<String> {
        if self.status != reference.status {
            return Some(format!(
                "exit status {} (host: {})",
                self.status, reference.status
            ));
        }
        if let Some(d) = first_differing_line(&self.stdout, &reference.stdout) {
            return Some(format!("stdout {d}"));
        }
        let names: BTreeSet<&String> = self.files.keys().chain(reference.files.keys()).collect();
        for name in names {
            match (self.files.get(name), reference.files.get(name)) {
                (Some(a), Some(b)) => {
                    if let Some(d) = first_differing_line(a, b) {
                        return Some(format!("{name} {d}"));
                    }
                }
                (Some(_), None) => return Some(format!("{name} exists only in our output")),
                (None, Some(_)) => return Some(format!("{name} exists only in the host's output")),
                (None, None) => unreachable!("name came from one of the maps"),
            }
        }
        None
    }
}

fn first_differing_line(ours: &[u8], host: &[u8]) -> Option<String> {
    if ours == host {
        return None;
    }
    let mut a = ours.split(|&b| b == b'\n');
    let mut b = host.split(|&b| b == b'\n');
    let mut line = 1;
    loop {
        match (a.next(), b.next()) {
            (Some(x), Some(y)) if x == y => line += 1,
            (x, y) => {
                let show = |l: Option<&[u8]>| match l {
                    Some(l) => format!("`{}`", String::from_utf8_lossy(&l[..l.len().min(80)])),
                    None => "<end of output>".to_string(),
                };
                return Some(format!("line {line}: ours {} host {}", show(x), show(y)));
            }
        }
    }
}

/// Fails unless every command the plan executes exists on the host.
/// A missing utility must stop the benchmark, not silently shrink it.
/// `found` carries the names already seen on the host from one script
/// to the next, so a list of scripts asks about each utility once.
pub fn require_host_utilities(
    plan: &ExecutionPlan,
    found: &mut BTreeSet<String>,
) -> Result<(), String> {
    let mut names = BTreeSet::new();
    for region in plan.regions() {
        for node in &region.nodes {
            if let PlanOp::Exec { .. } = node.op {
                if let Some(name) = node.op.exec_argv_lossy().and_then(|a| a.into_iter().next()) {
                    names.insert(name);
                }
            }
        }
    }
    for name in names {
        if found.contains(&name) {
            continue;
        }
        let present = Command::new("/bin/sh")
            .args(["-c", "command -v \"$1\"", "sh", &name])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run /bin/sh: {e}"))?
            .success();
        if !present {
            return Err(format!("host utility `{name}` is missing"));
        }
        found.insert(name);
    }
    Ok(())
}

/// Runs `script` under host `/bin/sh` in `dir` with `LC_ALL=C`,
/// feeding `stdin_file` (or `/dev/null`) on stdin. Files the script
/// creates in `dir` (anything not named in `inputs`) are moved into
/// the result, leaving the directory as it was.
pub fn host_run(
    script: &str,
    dir: &Path,
    stdin_file: Option<&Path>,
    inputs: &BTreeSet<String>,
) -> io::Result<(Observed, Duration)> {
    let stdin = match stdin_file {
        Some(p) => Stdio::from(std::fs::File::open(p)?),
        None => Stdio::null(),
    };
    let start = Instant::now();
    let out = Command::new("/bin/sh")
        .args(["-c", script])
        .current_dir(dir)
        .env("LC_ALL", "C")
        .stdin(stdin)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()?;
    let elapsed = start.elapsed();
    let status = out.status.code().unwrap_or(-1);
    if status == 126 || status == 127 || status < 0 {
        return Err(io::Error::other(format!(
            "host /bin/sh could not run `{script}` (status {status}): {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )));
    }
    Ok((
        Observed {
            status,
            stdout: out.stdout,
            files: take_outputs(dir, inputs)?,
        },
        elapsed,
    ))
}

/// Moves every top-level file of `dir` that is not an input into
/// memory (read, then removed).
pub fn take_outputs(
    dir: &Path,
    inputs: &BTreeSet<String>,
) -> io::Result<BTreeMap<String, Vec<u8>>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if inputs.contains(&name) {
            continue;
        }
        files.insert(name, std::fs::read(entry.path())?);
        std::fs::remove_file(entry.path())?;
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_names_the_line() {
        let host = Observed {
            status: 0,
            stdout: b"a\nb\nc\n".to_vec(),
            files: BTreeMap::new(),
        };
        let mut ours = host.clone();
        assert_eq!(ours.first_difference(&host), None);
        ours.stdout = b"a\nX\nc\n".to_vec();
        let d = ours.first_difference(&host).expect("differs");
        assert!(
            d.contains("line 2") && d.contains("`X`") && d.contains("`b`"),
            "{d}"
        );
        ours.stdout = b"a\nb\n".to_vec();
        let d = ours.first_difference(&host).expect("differs");
        assert!(d.contains("line 3"), "{d}");
        ours = host.clone();
        ours.status = 1;
        assert!(ours
            .first_difference(&host)
            .expect("differs")
            .contains("exit status"));
    }
}
