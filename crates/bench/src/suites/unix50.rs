//! The Unix50 suite (§6.2): 34 pipelines in the spirit of the Bell
//! Labs Unix game solutions — written by non-experts, 2–12 stages,
//! heavy use of standard commands under varied flags.
//!
//! The original solutions process chapters of "The Unix Game" corpus;
//! ours run over a generated columnar corpus (`unix50.txt`). The suite
//! deliberately includes the paper's three outcome groups:
//! * pipelines PaSh accelerates (the majority);
//! * pipelines with non-parallelizable stages (`sed` with addresses,
//!   `tail +N`, unknown commands standing in for `awk`) — no speedup;
//! * pipelines dominated by `head` on tiny effective input — slowdown.

use pash_coreutils::fs::MemFs;
use pash_workloads as wl;

/// One Unix50-style pipeline.
#[derive(Debug, Clone)]
pub struct Unix50 {
    /// Pipeline index (as in Fig. 8's x-axis).
    pub idx: usize,
    /// The script.
    pub script: &'static str,
    /// Why this pipeline behaves the way it does.
    pub note: &'static str,
}

/// All 34 pipelines.
pub fn all() -> Vec<Unix50> {
    let scripts: Vec<(&'static str, &'static str)> = vec![
        ("cat unix50.txt | tr A-Z a-z | sort > out.txt", "sort-bound"),
        ("cat unix50.txt | cut -d ' ' -f 1 | sort | uniq -c | sort -rn > out.txt", "word ranking"),
        ("cat unix50.txt | head -n 3 > out.txt", "head: tiny work, setup dominates"),
        ("cat unix50.txt | grep the | wc -l > out.txt", "grep+count"),
        ("cat unix50.txt | cut -d ' ' -f 2 | sort -n > out.txt", "numeric sort"),
        ("cat unix50.txt | tr -cs A-Za-z '\\n' | sort -u > out.txt", "vocabulary"),
        ("cat unix50.txt | cut -d ' ' -f 1,3 | tr A-Z a-z | sort | uniq > out.txt", "pair dedup"),
        ("cat unix50.txt | rev | cut -d ' ' -f 1 | rev > out.txt", "last field via rev"),
        ("cat unix50.txt | grep -v the | grep river | wc -l > out.txt", "double filter"),
        ("cat unix50.txt | tr A-Z a-z | grep mountain | cut -d ' ' -f 2 | sort -rn | head -n 5 > out.txt", "top values"),
        ("cat unix50.txt | sed 's/ /_/' | sort > out.txt", "stateless sed"),
        ("cat unix50.txt | cut -d ' ' -f 4 | grep 9 | sort -n | uniq > out.txt", "digit filter"),
        ("cat unix50.txt | wc -lw > out.txt", "plain counting"),
        ("awk-reorder unix50.txt | sort -rn > out.txt", "awk column reorder: unknown command blocks PaSh"),
        ("cat unix50.txt | tr A-Z a-z | tr -d , | sort | uniq -c | sort -rn | head -n 10 > out.txt", "frequency top-10"),
        ("cat unix50.txt | cut -d ' ' -f 1 | sort > out.txt", "first column"),
        ("cat unix50.txt | grep -c river > out.txt", "grep -c aggregation"),
        ("cat unix50.txt | tr ' ' '\\n' | grep -v '^$' | sort -u | wc -l > out.txt", "unique token count"),
        ("cat unix50.txt | sort | uniq -c | sort -rn > out.txt", "line frequencies"),
        ("cat unix50.txt | head -n 1 | tr A-Z a-z > out.txt", "head -1: slowdown group"),
        ("cat unix50.txt | cut -d ' ' -f 3 | sort -n | tail -n 3 > out.txt", "max-3 via tail"),
        ("cat unix50.txt | rev | sort > out.txt", "reversed sort"),
        ("cat unix50.txt | tr A-Z a-z | fold -w 16 | sort -u > out.txt", "fold lines"),
        ("cat unix50.txt | grep -n the | cut -d : -f 1 | head -n 5 > out.txt", "line numbers"),
        ("sed -n '1,5p' unix50.txt | cut -d ' ' -f 1 > out.txt", "sed address range: not parallelizable"),
        ("cat unix50.txt | sed '2d' | wc -l > out.txt", "sed delete address: not parallelizable"),
        ("cat unix50.txt | nl | tail -n 2 > out.txt", "nl: no aggregator"),
        ("cat unix50.txt | cut -d ' ' -f 2 | sort -n | uniq | wc -l > out.txt", "distinct numbers"),
        ("cat unix50.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 1 > out.txt", "most common word"),
        ("tail +2 unix50.txt | cut -d ' ' -f 1 > out.txt", "tail +2 prefix drop: not parallelizable"),
        ("cat unix50.txt | grep '[0-9]' | wc -l > out.txt", "digit lines"),
        ("cat unix50.txt | tr A-Z a-z | sed 's/river/RIVER/' | grep RIVER | wc -l > out.txt", "sed+grep chain"),
        ("cat unix50.txt | cut -d ' ' -f 1 | sort -u | comm -23 - sorted.txt > out.txt", "comm against sorted list"),
        ("cat unix50.txt | tr A-Z a-z | sort | sort -rn > out.txt", "double sort"),
    ];
    scripts
        .into_iter()
        .enumerate()
        .map(|(idx, (script, note))| Unix50 { idx, script, note })
        .collect()
}

/// Materializes the suite's inputs.
pub fn setup_fs(bytes: usize, fs: &MemFs) {
    let rows = (bytes / 24).max(16);
    fs.add("unix50.txt", wl::columnar_corpus(29, rows, 4));
    // The comm pipeline needs a sorted reference list.
    let mut words: Vec<&str> = vec!["and", "data", "river", "the", "zebra"];
    words.sort_unstable();
    let mut sorted = Vec::new();
    for w in words {
        sorted.extend_from_slice(w.as_bytes());
        sorted.push(b'\n');
    }
    fs.add("sorted.txt", sorted);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pash_core::compile::{compile, PashConfig};

    #[test]
    fn thirty_four_pipelines() {
        assert_eq!(all().len(), 34);
    }

    #[test]
    fn all_pipelines_compile() {
        for p in all() {
            compile(p.script, &PashConfig::default())
                .unwrap_or_else(|e| panic!("pipeline {} failed: {e}", p.idx));
        }
    }

    #[test]
    fn stage_depth_matches_paper_range() {
        // "expressed as pipelines with 2–12 stages (avg.: 5.58)".
        let mut total = 0usize;
        for p in all() {
            let stages = p.script.split('|').count();
            assert!((1..=12).contains(&stages), "pipeline {}", p.idx);
            total += stages;
        }
        let avg = total as f64 / all().len() as f64;
        assert!((3.0..7.0).contains(&avg), "avg stages {avg:.2}");
    }

    #[test]
    fn includes_non_parallelizable_group() {
        let blocked: Vec<usize> = all()
            .iter()
            .filter(|p| p.note.contains("not parallelizable") || p.note.contains("blocks"))
            .map(|p| p.idx)
            .collect();
        assert!(blocked.len() >= 4, "need a no-speedup group: {blocked:?}");
    }
}
