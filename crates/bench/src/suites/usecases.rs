//! The two large use cases: NOAA weather analysis (§6.3, Fig. 1) and
//! Wikipedia web indexing (§6.4).

use pash_coreutils::fs::MemFs;
use pash_workloads::{generate_noaa, generate_wiki, NoaaSpec, WikiSpec};

/// The Fig. 1 pipeline over the local mirror (substitutions: `fetch`
/// reads a mirror path where `curl` would download a URL, and `unrle`
/// decodes run-length records where `gunzip` would inflate).
pub fn noaa_script(years: std::ops::RangeInclusive<u32>) -> String {
    format!(
        "base=noaa\nfor y in {{{}..{}}}; do\n  cat $base/$y/index.txt | grep rec | tr -s ' ' | cut -d ' ' -f 9 | sed \"s;^;$base/$y/;\" | xargs -n 1 fetch | unrle | cut -c 89-92 | grep -iv 999 | sort -rn | head -n 1 | sed \"s/^/Maximum temperature for $y is: /\"\ndone",
        years.start(),
        years.end()
    )
}

/// Only the max-temperature phase (the book's Hadoop part), for the
/// per-phase speedup numbers of §6.3.
pub fn noaa_compute_script(year: u32) -> String {
    format!("cat noaa-{year}.flat | cut -c 89-92 | grep -iv 999 | sort -rn | head -n 1 > out.txt")
}

/// Sets up the NOAA mirror; returns `(ground truths, spec)`.
pub fn setup_noaa(fs: &MemFs, spec: &NoaaSpec) -> Vec<(u32, u32)> {
    generate_noaa(fs, "noaa", spec)
}

/// The §6.4 web-indexing pipeline: fetch pages, extract text, apply
/// NLP-ish stages, index by stemmed term frequency. `html-to-text` and
/// `word-stem` stand in for the original's JavaScript and Python
/// stages; each needed one annotation record.
pub fn wiki_script() -> String {
    "cat wiki/urls.txt | xargs -n 1 fetch | html-to-text | tr -cs A-Za-z '\\n' | tr A-Z a-z | word-stem | sort | uniq -c | sort -rn > index.txt"
        .to_string()
}

/// Sets up the wiki mirror.
pub fn setup_wiki(fs: &MemFs, spec: &WikiSpec) {
    generate_wiki(fs, "wiki", spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pash_core::compile::{compile, PashConfig};

    #[test]
    fn noaa_script_compiles_and_unrolls() {
        let src = noaa_script(2015..=2017);
        let out = compile(
            &src,
            &PashConfig {
                width: 4,
                unroll_for: true,
                ..Default::default()
            },
        )
        .expect("compile");
        // One region per unrolled year.
        assert_eq!(out.stats.regions, 3);
    }

    #[test]
    fn wiki_script_compiles() {
        let out = compile(
            &wiki_script(),
            &PashConfig {
                width: 4,
                ..Default::default()
            },
        )
        .expect("compile");
        assert_eq!(out.stats.regions, 1);
        // The annotated non-POSIX stages parallelize: expect many
        // command copies.
        assert!(out.stats.nodes.commands > 10);
    }
}
