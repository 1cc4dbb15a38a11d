//! Parallelizability classes (§3.1, Tab. 1).
//!
//! A class captures the synchronization commands running in parallel
//! copies require. The classes form a hierarchy ordered by ascending
//! difficulty of parallelization; a command under a set of flags is
//! classified by its *least parallelizable* interpretation.

use crate::dfg::Aggregator;

/// The four parallelizability classes of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ParClass {
    /// S — stateless: a pure per-line map/filter. Parallel copies need
    /// no synchronization; outputs concatenate.
    Stateless,
    /// P — parallelizable pure: functionally pure with internal state;
    /// parallelizable as map + associative aggregate.
    Pure,
    /// N — non-parallelizable pure: pure, but state depends on all
    /// prior input non-trivially (e.g. `sha1sum`).
    NonParallelizable,
    /// E — side-effectful: interacts with the system beyond its
    /// streams; never touched by PaSh.
    SideEffectful,
}

impl ParClass {
    /// Returns the least parallelizable (maximum) of two classes.
    ///
    /// Used to combine the contributions of individual flags: "a
    /// command is classified by the class of its least parallelizable
    /// flag" (§3.2).
    pub fn join(self, other: ParClass) -> ParClass {
        self.max(other)
    }

    /// One-letter tag as used in the paper's tables.
    pub fn letter(self) -> char {
        match self {
            ParClass::Stateless => 'S',
            ParClass::Pure => 'P',
            ParClass::NonParallelizable => 'N',
            ParClass::SideEffectful => 'E',
        }
    }

    /// Parses the DSL's category keywords.
    pub fn from_keyword(s: &str) -> Option<ParClass> {
        match s {
            "stateless" | "S" => Some(ParClass::Stateless),
            "pure" | "P" => Some(ParClass::Pure),
            "non-parallelizable" | "N" => Some(ParClass::NonParallelizable),
            "side-effectful" | "E" => Some(ParClass::SideEffectful),
            _ => None,
        }
    }
}

/// How a command may consume a round-robin (`r_split`) stream.
///
/// Round-robin distribution hands each parallel copy an arbitrary
/// subset of the input's line-aligned blocks, so a copy sees neither a
/// contiguous prefix nor the stream's global order. The capability is
/// derived from the parallelizability class plus the aggregator:
///
/// * **Framed** — copies process tagged blocks independently and emit
///   one output block per input block. Stateless maps/filters are
///   recombined by a reordering aggregator; pure commands whose
///   aggregator folds only at block boundaries (`uniq`, `uniq -c`)
///   are recombined by a tag-ordered `pash-agg-frame-merge`.
/// * **Raw** — pure commands whose aggregator is *commutative*
///   (order-insensitive sums like `wc` and `grep -c`, and the merge
///   of every `sort` without `-u` — plain, numeric or keyed). Blocks
///   flow to copies untagged; the normal aggregation network
///   combines. On a pipe from another stage these consumers get raw
///   blocks under the `Sized` policy too, not only under `RoundRobin`.
/// * **No** — everything else (`sort -u`, whose surviving line
///   depends on input order; custom stitchers like the bigram
///   aggregator): the compiler falls back to segment splitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrMode {
    /// Cannot consume round-robin streams; use segment splits.
    No,
    /// Consumes tagged blocks; order restored by `pash-agg-reorder`.
    Framed,
    /// Consumes untagged blocks; the aggregator commutes.
    Raw,
}

/// The round-robin capability of an invocation, given its class and
/// (for class P) its aggregator.
///
/// Class-P commands qualify two ways: a commutative aggregator lets
/// blocks flow untagged ([`Aggregator::commutes`]), and a boundary-fold
/// aggregator lets copies consume tagged blocks one at a time with the
/// fold re-applied in tag order ([`Aggregator::frame_folds`]). Anything
/// else — `sort -u`, the bigram stitcher — keeps the segment path.
pub fn rr_mode(class: ParClass, agg: Option<&Aggregator>) -> RrMode {
    match class {
        ParClass::Stateless => RrMode::Framed,
        ParClass::Pure => match agg {
            Some(agg) if agg.commutes() => RrMode::Raw,
            Some(agg) if agg.frame_folds() => RrMode::Framed,
            _ => RrMode::No,
        },
        _ => RrMode::No,
    }
}

impl std::fmt::Display for ParClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ParClass::Stateless => "stateless",
            ParClass::Pure => "parallelizable pure",
            ParClass::NonParallelizable => "non-parallelizable pure",
            ParClass::SideEffectful => "side-effectful",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annot::stdlib::AnnotationLibrary;

    #[test]
    fn hierarchy_order() {
        assert!(ParClass::Stateless < ParClass::Pure);
        assert!(ParClass::Pure < ParClass::NonParallelizable);
        assert!(ParClass::NonParallelizable < ParClass::SideEffectful);
    }

    #[test]
    fn join_takes_least_parallelizable() {
        // The trace-sort example from §3.2: P flags + one E flag ⇒ E.
        assert_eq!(
            ParClass::Pure.join(ParClass::SideEffectful),
            ParClass::SideEffectful
        );
        assert_eq!(
            ParClass::Stateless.join(ParClass::Stateless),
            ParClass::Stateless
        );
    }

    #[test]
    fn rr_capability_from_class_and_agg() {
        // The class and aggregator the standard library gives `argv`.
        let rr = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let c = AnnotationLibrary::standard()
                .classify(&argv)
                .expect("classified");
            rr_mode(c.class, c.agg.as_ref())
        };
        assert_eq!(rr(&["tr", "a", "b"]), RrMode::Framed);
        assert_eq!(rr(&["wc"]), RrMode::Raw);
        assert_eq!(rr(&["wc", "-lw"]), RrMode::Raw);
        assert_eq!(rr(&["grep", "-c", "x"]), RrMode::Raw);
        // Whole-line comparisons are total orders: ties are
        // byte-identical, so the merge commutes.
        assert_eq!(rr(&["sort"]), RrMode::Raw);
        assert_eq!(rr(&["sort", "-r"]), RrMode::Raw);
        // Key ties fall to the whole line, so keyed and numeric
        // orders are total too.
        // (`-t -u` is a separator, not `-u`.)
        for spec in [
            &["-n"][..],
            &["-rn"],
            &["-k", "2"],
            &["-t", ",", "-k2n"],
            &["-t", "-u"],
        ] {
            let argv: Vec<&str> = std::iter::once("sort")
                .chain(spec.iter().copied())
                .collect();
            assert_eq!(rr(&argv), RrMode::Raw, "{spec:?}");
        }
        // `-u` keeps the first line of a key group: order-sensitive.
        for spec in [&["-u"][..], &["-nu"], &["-k1,1", "-u"]] {
            let argv: Vec<&str> = std::iter::once("sort")
                .chain(spec.iter().copied())
                .collect();
            assert_eq!(rr(&argv), RrMode::No, "{spec:?}");
        }
        // Boundary folds consume tagged blocks via frame-merge.
        assert_eq!(rr(&["uniq"]), RrMode::Framed);
        assert_eq!(rr(&["uniq", "-c"]), RrMode::Framed);
        // The bigram stitcher relies on split-boundary markers.
        assert_eq!(rr(&["bigrams-aux"]), RrMode::No);
        assert_eq!(rr_mode(ParClass::Pure, None), RrMode::No);
        assert_eq!(rr(&["paste", "a"]), RrMode::No);
        assert_eq!(rr(&["seq", "3"]), RrMode::No);
    }

    #[test]
    fn keyword_roundtrip() {
        for c in [
            ParClass::Stateless,
            ParClass::Pure,
            ParClass::NonParallelizable,
            ParClass::SideEffectful,
        ] {
            let kw = c.letter().to_string();
            assert_eq!(ParClass::from_keyword(&kw), Some(c));
        }
        assert_eq!(
            ParClass::from_keyword("stateless"),
            Some(ParClass::Stateless)
        );
        assert_eq!(ParClass::from_keyword("bogus"), None);
    }
}
