//! The twelve classic one-liners of Tab. 2 / Fig. 7, expressed over
//! this repository's command set.

use pash_coreutils::fs::MemFs;
use pash_workloads as wl;

/// The expensive NFA pattern of the Grep benchmark.
pub const COMPLEX_PATTERN: &str = "(th|he|an)+(er|in)*(re|on)+ing";

/// One benchmark script.
#[derive(Debug, Clone)]
pub struct Oneliner {
    /// Benchmark name as in Tab. 2.
    pub name: &'static str,
    /// The script (reads `in.txt` / `in2.txt`, writes `out.txt`).
    pub script: String,
    /// Whether the script reads the secondary input `in2.txt`.
    pub two_inputs: bool,
}

/// The full Tab. 2 suite.
pub fn all() -> Vec<Oneliner> {
    vec![
        Oneliner {
            name: "Grep",
            script: format!(
                "cat in.txt | tr A-Z a-z | grep '{COMPLEX_PATTERN}' | tr -d , > out.txt"
            ),
            two_inputs: false,
        },
        Oneliner {
            name: "Sort",
            script: "cat in.txt | tr A-Z a-z | sort > out.txt".to_string(),
            two_inputs: false,
        },
        Oneliner {
            name: "Top-n",
            script: "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 100 > out.txt"
                .to_string(),
            two_inputs: false,
        },
        Oneliner {
            name: "Wf",
            script: "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | tr -d , | sort | uniq -c | sort -rn > out.txt"
                .to_string(),
            two_inputs: false,
        },
        Oneliner {
            name: "Grep-light",
            script: "cat in.txt | tr A-Z a-z | grep the | tr -s ' ' > out.txt".to_string(),
            two_inputs: false,
        },
        Oneliner {
            name: "Spell",
            script: "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sed 's/s$//' | sort | uniq | comm -13 dict.txt - > out.txt"
                .to_string(),
            two_inputs: false,
        },
        Oneliner {
            name: "Shortest-scripts",
            script: "cat filelist.txt | grep sh | xargs -n 1 wc -l | sort -n | head -n 15 > out.txt"
                .to_string(),
            two_inputs: false,
        },
        Oneliner {
            name: "Diff",
            script: "tr A-Z a-z < in.txt | sort > t1.txt & tr A-Z a-z < in2.txt | sort > t2.txt\ndiff t1.txt t2.txt | wc -l > out.txt"
                .to_string(),
            two_inputs: true,
        },
        Oneliner {
            name: "Bi-grams",
            script: "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z > w1.txt\ntail +2 w1.txt > w2.txt\npaste -d ' ' w1.txt w2.txt | sort | uniq -c > out.txt"
                .to_string(),
            two_inputs: false,
        },
        Oneliner {
            name: "Bi-grams-opt",
            script: "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | bigrams-aux | sort | uniq -c > out.txt"
                .to_string(),
            two_inputs: false,
        },
        Oneliner {
            name: "Set-diff",
            script: "cut -d ' ' -f 1 in.txt | tr A-Z a-z | sort -u > s1.txt & cut -d ' ' -f 1 in2.txt | tr A-Z a-z | sort -u > s2.txt\ncomm -23 s1.txt s2.txt > out.txt"
                .to_string(),
            two_inputs: true,
        },
        Oneliner {
            name: "Sort-sort",
            script: "cat in.txt | tr A-Z a-z | sort | sort -r > out.txt".to_string(),
            two_inputs: false,
        },
    ]
}

/// Looks a benchmark up by name.
pub fn by_name(name: &str) -> Option<Oneliner> {
    all().into_iter().find(|o| o.name == name)
}

/// Materializes the benchmark's inputs into a filesystem.
pub fn setup_fs(bench: &Oneliner, bytes: usize, fs: &MemFs) {
    fs.add("in.txt", wl::text_corpus(11, bytes));
    if bench.two_inputs {
        fs.add("in2.txt", wl::text_corpus(13, bytes));
    }
    if bench.script.contains("dict.txt") {
        fs.add("dict.txt", wl::dictionary());
    }
    if bench.script.contains("filelist.txt") {
        // A directory of small "scripts" plus a listing.
        let mut list = String::new();
        for i in 0..40 {
            let path = format!("scripts/s{i:03}.sh");
            let body = wl::text_corpus(100 + i as u64, 200 + (i * 37) % 900);
            fs.add(path.clone(), body);
            list.push_str(&path);
            list.push('\n');
        }
        fs.add("filelist.txt", list.into_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pash_core::compile::{compile, PashConfig};

    #[test]
    fn all_scripts_compile() {
        for b in all() {
            let out = compile(
                &b.script,
                &PashConfig {
                    width: 4,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", b.name));
            assert!(out.stats.regions >= 1, "{} produced no regions", b.name);
        }
    }

    #[test]
    fn twelve_benchmarks_like_tab2() {
        assert_eq!(all().len(), 12);
    }

    #[test]
    fn setup_provides_referenced_files() {
        let fs = MemFs::new();
        for b in all() {
            setup_fs(&b, 2_000, &fs);
        }
        assert!(fs.read("in.txt").is_ok());
        assert!(fs.read("dict.txt").is_ok());
        assert!(fs.read("filelist.txt").is_ok());
    }
}
