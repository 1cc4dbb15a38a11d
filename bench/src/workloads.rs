//! The four benchmark workloads, their seeded inputs, and the
//! request schedule of the service phases.
//!
//! Each workload is built so that one layer does most of the work and
//! another almost none (see `bench/README.md`); an optimisation then
//! has one workload that exercises it and one that bypasses it.

use std::collections::BTreeMap;
use std::sync::Arc;

use pash::core::compile::PashConfig;
use pash::core::dfg::transform::SplitPolicy;
use pash::workloads::rng::SplitMix64;
use pash::workloads::{columnar_corpus, dictionary, text_corpus};
use pash_bench::suites::{oneliners, unix50};

/// Parallel width, everywhere. A constant rather than `nproc` so two
/// machines and two commits run the same plan.
pub const W: usize = 2;

/// Input size of `--quick` runs.
pub const SMALL: usize = 64 * 1024;

/// Input size of the `short-scripts` workload. At the 64 KiB first
/// specified the kernels are a third of a request (1.4 of 3.8 ms); at
/// 8 KiB a twelfth (0.2 of 2.4 ms), so the fixed costs this workload
/// is for carry it. Sample length does not depend on it (`passes`).
pub const SHORT: usize = 8 * 1024;

const MIB: usize = 1024 * 1024;

/// Name of the input file that feeds a stdin-reading workload.
pub const STDIN_FILE: &str = "stdin.dat";

/// The three in-process configurations every workload is timed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Width 1 on `threads`: the baseline PaSh must not slow down.
    Seq,
    /// Width [`W`] on `threads` (what `pashd` runs).
    Par,
    /// Width [`W`] on `processes` (children over FIFOs on disk).
    Procs,
}

impl Config {
    pub const ALL: [Config; 3] = [Config::Seq, Config::Par, Config::Procs];

    pub fn metric(self) -> &'static str {
        match self {
            Config::Seq => "seq_s",
            Config::Par => "par_s",
            Config::Procs => "procs_par_s",
        }
    }

    pub fn width(self) -> usize {
        match self {
            Config::Seq => 1,
            Config::Par | Config::Procs => W,
        }
    }

    pub fn backend(self) -> &'static str {
        match self {
            Config::Seq | Config::Par => "threads",
            Config::Procs => "processes",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    pub id: String,
    pub text: String,
}

/// How much one run measures. Constants of the workload and the
/// mode, never derived from a clock: two commits (and two machines)
/// run the same number of operations, so a faster commit cannot buy
/// itself more samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Timed set-ups; the median is reported as `setup_s`.
    pub setups: usize,
    /// Back-to-back passes over the scripts in one timed sample. The
    /// reported value is sample time ÷ passes.
    pub passes: usize,
    /// Timed samples of the width-[`W`] `threads` configuration.
    pub samples: usize,
    /// Requests of the 1-client phase.
    pub c1_requests: usize,
    /// Requests of the 2-client phase, both clients together.
    pub c2_requests: usize,
}

/// Timed `par_s` samples of a recorded end-to-end run. One sample of
/// the memory-bound `sort-merge` moves by 7-11 % on identical code
/// even on a quiet machine; the median of seven moves by 3-4 %.
pub const SAMPLES: usize = 7;

/// Which of a workload's fixed sets of counts a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The recorded end-to-end run (`--trace 0`): `setup_s`, `par_s`
    /// and `rps`, so no 1-client phase.
    EndToEnd,
    /// The traced run: everything once. One set-up, one pass per
    /// sample, half the requests (`daemon.req_p99_ms` keeps its ten
    /// samples beyond).
    Traced,
    /// `--quick`: every path once, check only.
    Quick,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `Sized` is `PashConfig::best`, `RoundRobin` is
    /// `PashConfig::round_robin`; also sent with every request.
    pub split: SplitPolicy,
    pub scripts: Vec<Script>,
    /// Timed set-ups of a recorded run: one where a set-up lasts
    /// seconds, several where it is short.
    pub setups: usize,
    /// Passes per timed sample of a recorded run, sized so a `par_s`
    /// sample lasts at least 1 s on the seed commit.
    pub passes: usize,
    /// Requests of the 1-client and of the 2-client phase.
    pub requests: (usize, usize),
    /// Share of requests that carry a script text the daemon has never
    /// seen (both cache tiers miss: full compile plus disk write).
    pub fresh_share: f64,
}

impl Workload {
    pub fn config(&self, width: usize) -> PashConfig {
        PashConfig {
            width,
            split: self.split,
            ..Default::default()
        }
    }

    pub fn counts(&self, mode: Mode) -> Counts {
        let each_script = self.scripts.len().max(3);
        match mode {
            Mode::EndToEnd => Counts {
                setups: self.setups,
                passes: self.passes,
                samples: SAMPLES,
                c1_requests: 0,
                c2_requests: self.requests.1,
            },
            Mode::Traced => Counts {
                setups: 1,
                passes: 1,
                samples: 3,
                c1_requests: self.requests.0 / 2,
                c2_requests: self.requests.1 / 2,
            },
            Mode::Quick => Counts {
                setups: 1,
                passes: 1,
                samples: 1,
                c1_requests: each_script,
                c2_requests: 2 * each_script,
            },
        }
    }
}

pub fn by_name(name: &str) -> Option<Workload> {
    let single = |id: &str, text: &str| {
        vec![Script {
            id: id.to_string(),
            text: text.to_string(),
        }]
    };
    Some(match name {
        "sort-merge" => Workload {
            name: "sort-merge",
            why: "almost all lines distinct: sort kernels and k-way merge aggregators carry a stream as large as the input, output as large as the input; regex idle",
            split: SplitPolicy::Sized,
            scripts: single(
                "sort-merge",
                "cat in.txt | tr A-Z a-z | sort | uniq -c | sort -n > out.txt",
            ),
            setups: 1,
            passes: 1,
            requests: (4, 8),
            fresh_share: 0.0,
        },
        "regex-filter" => Workload {
            name: "regex-filter",
            why: "grep -E alternation, sed -E captures and stateless stages do the work; aggregation is a concatenation and output is ~4% of input; sort and merge idle",
            split: SplitPolicy::Sized,
            scripts: single(
                "regex-filter",
                "cat in-a.txt in-b.txt | tr A-Z a-z | grep -E '(river|mountain|signal|compiler) [a-z]+ (of|the|and)' | sed -E 's/([a-z]+)ing/\\1ed/g' | grep -v -E '^[a-m]' > out.txt",
            ),
            setups: 1,
            passes: 3,
            requests: (4, 8),
            fresh_share: 0.0,
        },
        "light-stream" => Workload {
            name: "light-stream",
            why: "cheapest kernels on a stdin stream: r_split, frames, pipes, relays and the reorder aggregator (and the service codec) carry the largest share; fileseg bypassed",
            split: SplitPolicy::RoundRobin,
            scripts: single(
                "light-stream",
                "tr A-Z a-z | cut -d ' ' -f 1-4 | tr -d ',.' | tr -s ' '",
            ),
            setups: 1,
            passes: 2,
            requests: (4, 8),
            fresh_share: 0.0,
        },
        "short-scripts" => Workload {
            name: "short-scripts",
            why: "many tiny suite scripts on 8 KiB inputs: parse, compile, spawn, connect, framing, snapshot, plan cache and admission dominate; kernels and data plane idle",
            split: SplitPolicy::Sized,
            scripts: short_list(),
            setups: 7,
            passes: 20,
            requests: (2000, 3000),
            fresh_share: 0.2,
        },
        _ => return None,
    })
}

/// Every script of the oneliners, Unix50 and NLP suites, by id.
pub fn suite_scripts() -> Vec<Script> {
    let mut all = Vec::new();
    for o in oneliners::all() {
        all.push(Script {
            id: format!("oneliners/{}", o.name),
            text: o.script,
        });
    }
    for u in unix50::all() {
        all.push(Script {
            id: format!("unix50/{:02}", u.idx),
            text: u.script.to_string(),
        });
    }
    for n in pash::workloads::nlp::scripts() {
        all.push(Script {
            id: format!("nlp/{}", n.name),
            text: n.script.to_string(),
        });
    }
    all
}

/// The checked-in list of suite scripts that run on all three
/// backends and match the host oracle (the ignored test
/// `suite_scripts_against_the_host` prints the list afresh).
pub fn short_list() -> Vec<Script> {
    let wanted: Vec<&str> = include_str!("../short_scripts.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let all = suite_scripts();
    wanted
        .iter()
        .map(|id| {
            all.iter()
                .find(|s| s.id == *id)
                .unwrap_or_else(|| panic!("short_scripts.txt names unknown script `{id}`"))
                .clone()
        })
        .collect()
}

/// A workload's generated inputs: files by relative path. A file
/// named [`STDIN_FILE`] is fed on stdin instead of being opened.
#[derive(Clone, PartialEq, Eq)]
pub struct Inputs {
    pub files: BTreeMap<String, Arc<Vec<u8>>>,
}

impl Inputs {
    pub fn stdin(&self) -> Option<&Arc<Vec<u8>>> {
        self.files.get(STDIN_FILE)
    }
}

/// Generates the inputs of workload `name` from `seed`. The same seed
/// gives the same bytes; the program under test sees only these.
pub fn generate(name: &str, seed: u64, quick: bool) -> Inputs {
    let sub = |k: u64| seed.wrapping_mul(1_000_003).wrapping_add(k);
    let size = |full: usize| if quick { SMALL } else { full };
    let mut files: BTreeMap<String, Arc<Vec<u8>>> = BTreeMap::new();
    let mut add = |path: &str, bytes: Vec<u8>| {
        files.insert(path.to_string(), Arc::new(bytes));
    };
    match name {
        "sort-merge" => add("in.txt", text_corpus(sub(1), size(32 * MIB))),
        "regex-filter" => {
            // Two files, each under the service's 64 MiB frame cap.
            add("in-a.txt", text_corpus(sub(1), size(48 * MIB)));
            add("in-b.txt", text_corpus(sub(2), size(48 * MIB)));
        }
        "light-stream" => add(STDIN_FILE, text_corpus(sub(1), size(60 * MIB))),
        "short-scripts" => {
            add("in.txt", text_corpus(sub(1), SHORT));
            add("in2.txt", text_corpus(sub(2), SHORT));
            add("dict.txt", dictionary());
            add("unix50.txt", columnar_corpus(sub(3), SHORT / 24, 4));
            add("sorted.txt", b"and\ndata\nriver\nthe\nzebra\n".to_vec());
            let mut list = String::new();
            for i in 0..40u64 {
                let path = format!("scripts/s{i:03}.sh");
                add(
                    &path,
                    text_corpus(sub(100 + i), 200 + (i as usize * 37) % 900),
                );
                list.push_str(&path);
                list.push('\n');
            }
            add("filelist.txt", list.into_bytes());
        }
        other => panic!("no input generator for workload `{other}`"),
    }
    Inputs { files }
}

/// One request of a service phase: which script, and the id that
/// makes its text never-seen (if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    pub script: usize,
    pub fresh: Option<u64>,
}

/// The request schedule of a service phase: scripts round-robin from
/// the list, `fresh_share` of them (drawn from the seed) rewritten to
/// a text the daemon has not seen. `first_id` keeps fresh ids unique
/// across phases of one run.
pub fn request_schedule(
    seed: u64,
    first_id: u64,
    n: usize,
    scripts: usize,
    fresh_share: f64,
) -> Vec<Planned> {
    let mut rng = SplitMix64::new(seed.wrapping_mul(1_000_003).wrapping_add(first_id + 7));
    (0..n)
        .map(|i| Planned {
            script: i % scripts,
            fresh: (fresh_share > 0.0 && rng.gen_bool(fresh_share)).then_some(first_id + i as u64),
        })
        .collect()
}

/// The never-seen variant of a script: a literal edit of its output
/// file name, so the plan itself differs (no cache may normalise it
/// away) while the bytes written stay the reference bytes.
pub fn fresh_text(text: &str, id: u64) -> String {
    text.replace("out.txt", &fresh_out_name(id))
}

pub fn fresh_out_name(id: u64) -> String {
    format!("out{id}.txt")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::names;

    #[test]
    fn same_seed_same_inputs_and_schedule() {
        for &name in &names().workloads {
            let a = generate(name, 7, true);
            assert!(a == generate(name, 7, true), "{name}: seed 7 twice");
            assert!(a != generate(name, 8, true), "{name}: seed 7 vs 8");
            assert!(a.files.values().all(|f| !f.is_empty()));
        }
        let s = request_schedule(7, 0, 500, 40, 0.2);
        assert_eq!(s, request_schedule(7, 0, 500, 40, 0.2));
        assert_ne!(s, request_schedule(8, 0, 500, 40, 0.2));
        let fresh = s.iter().filter(|p| p.fresh.is_some()).count();
        assert!((60..=140).contains(&fresh), "about 20% fresh, got {fresh}");
        assert!(s.iter().enumerate().all(|(i, p)| p.script == i % 40));
        assert!(request_schedule(7, 0, 50, 1, 0.0)
            .iter()
            .all(|p| p.fresh.is_none()));
    }

    #[test]
    fn fresh_text_only_renames_the_output() {
        let t = fresh_text("cat in.txt | sort > out.txt", 12);
        assert_eq!(t, "cat in.txt | sort > out12.txt");
    }

    #[test]
    fn every_workload_is_defined_and_compiles() {
        for &name in &names().workloads {
            let w = by_name(name).expect("defined");
            assert_eq!(w.name, name);
            assert!(!w.scripts.is_empty(), "{name} has scripts");
            for s in &w.scripts {
                pash::compile(&s.text, &w.config(W)).unwrap_or_else(|e| panic!("{}: {e}", s.id));
            }
        }
        assert!(by_name("no-such").is_none());
    }
}
