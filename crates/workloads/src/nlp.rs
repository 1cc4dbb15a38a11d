//! The Unix-for-NLP script family (the "Unix for poets" exercises the
//! PaSh evaluation runs over Project Gutenberg books), expressed over
//! this repository's command set.
//!
//! These pipelines are short `tr`/`sort`/`uniq`/`grep` compositions
//! whose stages have wildly different costs: tokenization is
//! stateless and scales with width, the `sort | uniq -c` tails are
//! merge-bound, and the `grep` filters shrink the stream early. The
//! differential and correctness suites run the family at several
//! widths and both split policies.

use pash_coreutils::fs::MemFs;

/// One NLP pipeline. Scripts read `in.txt` (and `in2.txt` for the
/// two-book comparisons) and write `out.txt`.
#[derive(Debug, Clone)]
pub struct NlpScript {
    /// Benchmark name, following the original family's naming.
    pub name: &'static str,
    /// The script.
    pub script: &'static str,
    /// Why this pipeline is interesting for per-stage decisions.
    pub note: &'static str,
    /// Whether the script also reads `in2.txt`.
    pub two_inputs: bool,
}

/// The ported family. Pipelines needing unsupported flags (`sort -f`,
/// `uniq -d`, `awk` bodies) are re-expressed with equivalent
/// registered commands rather than dropped.
pub fn scripts() -> Vec<NlpScript> {
    let s = |name, script, note, two_inputs| NlpScript {
        name,
        script,
        note,
        two_inputs,
    };
    vec![
        s(
            "count_words",
            "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c > out.txt",
            "the canonical word-frequency pipeline; stateless front, merge-bound tail",
            false,
        ),
        s(
            "merge_upper",
            "cat in.txt | tr a-z A-Z | tr -cs A-Z '\\n' | sort | uniq -c > out.txt",
            "case folding before tokenization",
            false,
        ),
        s(
            "count_vowel_seq",
            "cat in.txt | tr A-Z a-z | tr -cs aeiou '\\n' | grep -v '^$' | sort | uniq -c > out.txt",
            "vowel-sequence frequencies; the tokenizer emits many empty lines",
            false,
        ),
        s(
            "sort_words",
            "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort -u > out.txt",
            "vocabulary extraction (folded, so `sort -f` is not needed)",
            false,
        ),
        s(
            "sort_words_by_rhyming",
            "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | rev | sort -u | rev > out.txt",
            "rhyme order via rev|sort|rev",
            false,
        ),
        s(
            "4letter_words",
            "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | grep '^....$' | sort -u > out.txt",
            "length filter shrinks the stream before the sort",
            false,
        ),
        s(
            "words_no_vowels",
            "cat in.txt | tr A-Z a-z | tr -cs a-z '\\n' | grep -v '^$' | grep -v '[aeiou]' | sort -u > out.txt",
            "double filter leaves a tiny tail; wide widths are wasted",
            false,
        ),
        s(
            "1syllable_words",
            "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | grep '^[^aeiou]*[aeiou][^aeiou]*$' | sort -u > out.txt",
            "single-vowel-group words via anchored classes",
            false,
        ),
        s(
            "uppercase_by_type",
            "cat in.txt | tr -cs A-Za-z '\\n' | grep '[A-Z]' | sort -u > out.txt",
            "capitalized vocabulary (by type, not token)",
            false,
        ),
        s(
            "bigrams",
            "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | bigrams-aux | sort | uniq -c > out.txt",
            "adjacent word pairs; the aux stage is stateful across the stream",
            false,
        ),
        s(
            "top_vowel_seq",
            "cat in.txt | tr A-Z a-z | tr -cs aeiou '\\n' | grep -v '^$' | sort | uniq -c | sort -rn | head -n 5 > out.txt",
            "ranked vowel sequences (the `> 1K` threshold becomes a top-5)",
            false,
        ),
        s(
            "compare_books",
            "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort -u > v1.txt\n\
             cat in2.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort -u > v2.txt\n\
             comm -12 v1.txt v2.txt > out.txt",
            "shared vocabulary of two books (the exodus/genesis comparison)",
            true,
        ),
    ]
}

/// Seeds `fs` for the family: `in.txt` of roughly `bytes` text, plus
/// the second book when any script wants it.
pub fn setup_fs(bytes: usize, fs: &MemFs) {
    fs.add("in.txt", crate::text_corpus(17, bytes));
    fs.add("in2.txt", crate::text_corpus(19, bytes));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_write_out_and_read_in() {
        let family = scripts();
        assert!(family.len() >= 10, "family should stay substantial");
        for s in &family {
            assert!(s.script.contains("in.txt"), "{} reads in.txt", s.name);
            assert!(s.script.contains("> out.txt"), "{} writes out.txt", s.name);
            assert_eq!(s.two_inputs, s.script.contains("in2.txt"), "{}", s.name);
        }
    }

    #[test]
    fn setup_seeds_both_books() {
        let fs = MemFs::new();
        setup_fs(4096, &fs);
        assert!(fs.read("in.txt").expect("in.txt").len() >= 4096);
        assert_ne!(
            fs.read("in.txt").expect("in.txt"),
            fs.read("in2.txt").expect("in2.txt")
        );
    }
}
