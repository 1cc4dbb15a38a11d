//! Sort keys and the one order, shared by `sort`, `sort -m` and the
//! runtime's `pash-agg-sort` merge aggregator.
//!
//! A line's key is computed once ([`SortSpec::prepare`]) and every
//! comparison runs on prepared keys ([`SortSpec::compare_prepared`]).
//! The merge compares with it; the keyless `sort` kernel orders the
//! same lines by bytes and by `Prepared::numeric_code` instead, and
//! must put them exactly where `compare_prepared` would — the
//! invariant the map/aggregate law for `sort` rests on, which the
//! proptest in `tests/sort_arena.rs` guards.

use std::cmp::Ordering;
use std::ops::Range;

use crate::lines::numeric_prefix;

/// One `-k POS1[,POS2]` key definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySpec {
    /// 1-based first field of the key.
    pub start_field: usize,
    /// 1-based last field (inclusive); `None` = to end of line.
    pub end_field: Option<usize>,
    /// `n` modifier: numeric comparison.
    pub numeric: bool,
    /// `r` modifier: reverse this key.
    pub reverse: bool,
    /// `b` modifier on the start position: the key starts after the
    /// blanks that begin its first field.
    pub skip_blanks: bool,
    /// Whether any per-key modifier was given (overrides globals).
    pub has_modifiers: bool,
}

/// A full sort ordering specification.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SortSpec {
    /// Global `-n`.
    pub numeric: bool,
    /// Global `-r`.
    pub reverse: bool,
    /// `-u`: drop duplicate keys.
    pub unique: bool,
    /// `-t SEP`: field separator (default: whitespace runs).
    pub separator: Option<u8>,
    /// `-k` keys, in priority order; empty = whole line.
    pub keys: Vec<KeySpec>,
}

/// A line's sort key, computed once by [`SortSpec::prepare`]: nothing
/// for plain byte order, the parsed number when the first (or only)
/// key is numeric, otherwise the first key's byte range in the line.
/// One word, so a decorated index entry is three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Prepared(u64);

/// A line together with its prepared key. The key must come from
/// [`SortSpec::prepare`] on that line under the comparing spec.
pub type Keyed<'a> = (Prepared, &'a [u8]);

impl Prepared {
    /// A text key whose range does not fit two `u32`s (a line of
    /// 4 GiB): located again at each comparison instead.
    const UNCACHED: Prepared = Prepared(u64::MAX);

    #[inline]
    fn number(self) -> f64 {
        f64::from_bits(self.0)
    }

    fn of_range(r: Range<usize>) -> Prepared {
        match (u32::try_from(r.start), u32::try_from(r.end)) {
            (Ok(s), Ok(e)) if e < u32::MAX => Prepared(u64::from(s) << 32 | u64::from(e)),
            _ => Prepared::UNCACHED,
        }
    }

    fn range(self) -> Range<usize> {
        (self.0 >> 32) as usize..(self.0 & u64::from(u32::MAX)) as usize
    }

    /// A numeric key as a `u64` whose unsigned order is the order
    /// [`SortSpec::compare_prepared`] gives the numbers: `-0.0` and
    /// `0.0` compare equal there, so they share a code (the numbers are
    /// never NaN). Negative numbers flip every bit, the rest only the
    /// sign bit.
    pub(crate) fn numeric_code(self) -> u64 {
        let n = self.number();
        let bits = if n == 0.0 { 0 } else { n.to_bits() };
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    }
}

/// The value one key takes on one line.
#[derive(PartialEq, PartialOrd)]
enum KeyValue<'a> {
    Number(f64),
    Text(&'a [u8]),
}

impl SortSpec {
    /// Parses one `-k` argument such as `2`, `2,3`, `2n`, `2,2nr`.
    ///
    /// Character offsets (`F.C`) are accepted but the character part is
    /// ignored (field granularity), matching what the PaSh benchmarks
    /// need.
    pub fn parse_key(arg: &str) -> Option<KeySpec> {
        /// One `F[.C][OPTS]` position: (field, options).
        fn parse_pos(s: &str) -> Option<(usize, &str)> {
            let digits = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
            let field: usize = s[..digits].parse().ok().filter(|&f| f > 0)?;
            let mut opts = &s[digits..];
            // Optional `.C` character offset (ignored).
            if let Some(offset) = opts.strip_prefix('.') {
                opts = offset.trim_start_matches(|c: char| c.is_ascii_digit());
            }
            opts.chars()
                .all(|c| "nrb".contains(c))
                .then_some((field, opts))
        }
        let (start, end) = match arg.split_once(',') {
            Some((start, end)) => (parse_pos(start)?, Some(parse_pos(end)?)),
            None => (parse_pos(arg)?, None),
        };
        let end_opts = end.map_or("", |(_, opts)| opts);
        let either = |c| start.1.contains(c) || end_opts.contains(c);
        Some(KeySpec {
            start_field: start.0,
            end_field: end.map(|(field, _)| field),
            numeric: either('n'),
            reverse: either('r'),
            // (A `b` on the end position only moves a character
            // offset, which is ignored.)
            skip_blanks: start.1.contains('b'),
            has_modifiers: !start.1.is_empty() || !end_opts.is_empty(),
        })
    }

    /// True when the whole line is the only key (plain or `-r` byte
    /// order): prepared keys then carry nothing.
    #[inline]
    pub fn whole_line(&self) -> bool {
        self.keys.is_empty() && !self.numeric
    }

    /// The effective (numeric, reverse) of one key: its own modifiers
    /// when it has any, the global flags otherwise.
    fn key_options(&self, key: &KeySpec) -> (bool, bool) {
        if key.has_modifiers {
            (key.numeric, key.reverse)
        } else {
            (self.numeric || key.numeric, self.reverse || key.reverse)
        }
    }

    /// Computes the key of `line` once, for any number of comparisons.
    pub fn prepare(&self, line: &[u8]) -> Prepared {
        match self.keys.first() {
            None if self.numeric => Prepared(numeric_prefix(line).to_bits()),
            None => Prepared::default(),
            Some(key) => {
                let range = key_range(line, key, self.separator);
                if self.key_options(key).0 {
                    Prepared(numeric_prefix(&line[range]).to_bits())
                } else {
                    Prepared::of_range(range)
                }
            }
        }
    }

    /// The value of key `i`: the first key's comes from the prepared
    /// key; later keys are only reached when every earlier one ties
    /// and are located on demand (without allocating).
    fn key_value<'a>(&self, i: usize, numeric: bool, (cached, line): Keyed<'a>) -> KeyValue<'a> {
        match (i, numeric) {
            (0, true) => KeyValue::Number(cached.number()),
            (0, false) if cached != Prepared::UNCACHED => KeyValue::Text(&line[cached.range()]),
            _ => {
                let field = &line[key_range(line, &self.keys[i], self.separator)];
                if numeric {
                    KeyValue::Number(numeric_prefix(field))
                } else {
                    KeyValue::Text(field)
                }
            }
        }
    }

    /// Orders two lines by their `-k` keys, in priority order. Kept
    /// out of line so the keyless comparators inline into the sort.
    #[inline(never)]
    fn compare_fields(&self, a: Keyed<'_>, b: Keyed<'_>) -> Ordering {
        for (i, key) in self.keys.iter().enumerate() {
            let (numeric, reverse) = self.key_options(key);
            let (va, vb) = (self.key_value(i, numeric, a), self.key_value(i, numeric, b));
            let ord = directed(reverse, va, vb, compare_values);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Orders two lines by their keys alone.
    #[inline]
    fn compare_keys(&self, a: Keyed<'_>, b: Keyed<'_>) -> Ordering {
        if !self.keys.is_empty() {
            self.compare_fields(a, b)
        } else if self.numeric {
            directed(self.reverse, a.0.number(), b.0.number(), compare_values)
        } else {
            self.compare_lines(a.1, b.1)
        }
    }

    /// Whole-line byte order, reversed under global `-r`: all of a
    /// whole-line spec ([`SortSpec::whole_line`]), and every other
    /// spec's last resort.
    #[inline]
    fn compare_lines(&self, a: &[u8], b: &[u8]) -> Ordering {
        if self.reverse {
            b.cmp(a)
        } else {
            a.cmp(b)
        }
    }

    /// Compares two lines under this specification.
    ///
    /// Lines whose keys tie fall to GNU's last resort — except under
    /// `-u`, where tied lines are one group and a stable sort keeps
    /// its first.
    #[inline]
    pub fn compare_prepared(&self, a: Keyed<'_>, b: Keyed<'_>) -> Ordering {
        let ord = self.compare_keys(a, b);
        if ord != Ordering::Equal || self.unique || self.whole_line() {
            return ord;
        }
        self.compare_lines(a.1, b.1)
    }

    /// True when two lines compare equal *as keys* (for `-u`).
    #[inline]
    pub fn equal_prepared(&self, a: Keyed<'_>, b: Keyed<'_>) -> bool {
        self.compare_keys(a, b) == Ordering::Equal
    }

    /// [`SortSpec::compare_prepared`] on raw lines.
    pub fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        self.compare_prepared((self.prepare(a), a), (self.prepare(b), b))
    }

    /// [`SortSpec::equal_prepared`] on raw lines.
    pub fn key_equal(&self, a: &[u8], b: &[u8]) -> bool {
        self.equal_prepared((self.prepare(a), a), (self.prepare(b), b))
    }
}

/// `compare(a, b)`, or `compare(b, a)` under `reverse` (operands swap,
/// so each arm stays a plain comparison).
#[inline]
fn directed<T>(reverse: bool, a: T, b: T, compare: impl Fn(&T, &T) -> Ordering) -> Ordering {
    if reverse {
        compare(&b, &a)
    } else {
        compare(&a, &b)
    }
}

/// Numbers and key values are never NaN, so they are totally ordered.
#[inline]
fn compare_values<T: PartialOrd>(a: &T, b: &T) -> Ordering {
    a.partial_cmp(b).unwrap_or(Ordering::Equal)
}

/// The blanks that separate fields when there is no `-t`: GNU's
/// (`isblank`, and the newline).
fn blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n')
}

/// The offset just past the first `n` fields of `line`, as GNU's
/// `begfield` and `limfield` skip them: a field runs up to a
/// `separator` byte (the last one skipped is stepped over only
/// `past_separator`), or — the default — is a run of blanks and then
/// one of non-blanks, so a field begins with the blanks before it.
fn skip_fields(line: &[u8], n: usize, separator: Option<u8>, past_separator: bool) -> usize {
    let mut pos = 0;
    for i in 0..n {
        if pos == line.len() {
            break;
        }
        let rest = &line[pos..];
        pos += match separator {
            Some(sep) => match rest.iter().position(|&b| b == sep) {
                Some(at) => at + usize::from(past_separator || i + 1 < n),
                None => rest.len(),
            },
            None => {
                let blanks = rest.iter().position(|&b| !blank(b)).unwrap_or(rest.len());
                let word = rest[blanks..].iter().position(|&b| blank(b));
                blanks + word.unwrap_or(rest.len() - blanks)
            }
        };
    }
    pos
}

/// The byte range of one `-k` key, as GNU's `sort` finds it: from the
/// start of its first field (past its leading blanks under `b`) to the
/// end of its last field, or of the line; empty when the line has too
/// few fields.
fn key_range(line: &[u8], key: &KeySpec, separator: Option<u8>) -> Range<usize> {
    let mut start = skip_fields(line, key.start_field - 1, separator, true);
    if key.skip_blanks {
        start += line[start..].iter().take_while(|&&b| blank(b)).count();
    }
    let end = key
        .end_field
        .map_or(line.len(), |end| skip_fields(line, end, separator, false));
    start..end.max(start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(args: &str) -> SortSpec {
        // Tiny builder: "n", "r", "k2", "k2n", "t:" joined by spaces.
        let mut s = SortSpec::default();
        for a in args.split_whitespace() {
            match a {
                "n" => s.numeric = true,
                "r" => s.reverse = true,
                "u" => s.unique = true,
                _ if a.starts_with('t') => s.separator = Some(a.as_bytes()[1]),
                _ if a.starts_with('k') => s.keys.push(SortSpec::parse_key(&a[1..]).expect("key")),
                other => panic!("bad spec {other}"),
            }
        }
        s
    }

    #[test]
    fn plain_lexicographic() {
        let s = spec("");
        assert_eq!(s.compare(b"apple", b"banana"), Ordering::Less);
        assert_eq!(s.compare(b"b", b"b"), Ordering::Equal);
    }

    #[test]
    fn numeric_global() {
        let s = spec("n");
        assert_eq!(s.compare(b"9", b"10"), Ordering::Less);
        assert_eq!(s.compare(b"-2", b"1"), Ordering::Less);
    }

    #[test]
    fn reverse_global() {
        let s = spec("r");
        assert_eq!(s.compare(b"a", b"b"), Ordering::Greater);
    }

    #[test]
    fn reverse_numeric() {
        let s = spec("r n");
        assert_eq!(s.compare(b"10", b"9"), Ordering::Less);
    }

    #[test]
    fn key_second_field() {
        let s = spec("k2");
        assert_eq!(s.compare(b"x banana", b"y apple"), Ordering::Greater);
    }

    #[test]
    fn key_numeric_modifier() {
        let s = spec("k2n");
        assert_eq!(s.compare(b"a 9", b"b 10"), Ordering::Less);
    }

    #[test]
    fn key_with_custom_separator() {
        let s = spec("t: k2");
        assert_eq!(s.compare(b"x:bb", b"y:aa"), Ordering::Greater);
    }

    #[test]
    fn key_range() {
        let s = spec("k2,3");
        assert_eq!(
            s.compare(b"_ a z _", b"_ a z X"),
            s.compare(b"_ a z _", b"_ a z X")
        );
        assert_eq!(s.compare(b"_ b c", b"_ b d"), Ordering::Less);
    }

    #[test]
    fn last_resort_whole_line() {
        let s = spec("k2");
        // Equal keys fall back to full-line order.
        assert_eq!(s.compare(b"a same", b"b same"), Ordering::Less);
    }

    #[test]
    fn missing_field_sorts_empty() {
        let s = spec("k3");
        assert_eq!(s.compare(b"a b", b"a b c"), Ordering::Less);
    }

    #[test]
    fn parse_key_forms() {
        assert!(SortSpec::parse_key("2").is_some());
        assert!(SortSpec::parse_key("2,3").is_some());
        assert!(SortSpec::parse_key("2.1,2.5").is_some());
        let k = SortSpec::parse_key("2nr").expect("key");
        assert!(k.numeric && k.reverse && k.has_modifiers);
        assert!(SortSpec::parse_key("0").is_none());
        assert!(SortSpec::parse_key("x").is_none());
        assert!(SortSpec::parse_key("2n.3").is_none());
        assert!(SortSpec::parse_key("2,x").is_none());
        let k = SortSpec::parse_key("2.3b,4.").expect("key");
        assert_eq!((k.start_field, k.end_field), (2, Some(4)));
        assert!(!k.numeric && !k.reverse && k.has_modifiers);
        let k = SortSpec::parse_key("3,3n").expect("key");
        assert!(k.numeric && !k.reverse && k.has_modifiers);
    }

    #[test]
    fn last_resort_follows_global_reverse_only() {
        assert_eq!(spec("n").compare(b"1 b", b"1 a"), Ordering::Greater);
        assert_eq!(spec("n r").compare(b"1 b", b"1 a"), Ordering::Less);
        // `-k2r` reverses the key, not the last resort.
        assert_eq!(spec("k2r").compare(b"b x", b"a x"), Ordering::Greater);
        assert_eq!(spec("r k2").compare(b"b x", b"a x"), Ordering::Less);
    }

    #[test]
    fn unique_disables_the_last_resort() {
        assert_eq!(spec("u k1,1").compare(b"a z", b"a b"), Ordering::Equal);
        assert_eq!(spec("u n").compare(b"1 b", b"01 a"), Ordering::Equal);
        assert_eq!(spec("u").compare(b"a z", b"a b"), Ordering::Greater);
    }

    #[test]
    fn later_keys_and_uncached_ranges_use_the_same_fields() {
        let s = spec("k2,2 k1n");
        assert_eq!(s.compare(b"10 x", b"9 x"), Ordering::Greater);
        assert_eq!(s.compare(b"10 x", b"9 y"), Ordering::Less);
        let text = spec("k2");
        let (a, b) = (&b"_ b"[..], &b"_ a"[..]);
        assert_eq!(
            text.compare_prepared((Prepared::UNCACHED, a), (Prepared::UNCACHED, b)),
            text.compare(a, b)
        );
    }

    #[test]
    fn key_ranges_cover_first_to_last_field() {
        let k = |arg: &str| SortSpec::parse_key(arg).expect("key");
        let range = super::key_range;
        // A field begins with the blanks before it; `b` skips them.
        assert_eq!(range(b"  a  bb c ", &k("2"), None), 3..10);
        assert_eq!(range(b"  a  bb c ", &k("2b"), None), 5..10);
        assert_eq!(range(b"  a  bb c ", &k("2,2"), None), 3..7);
        assert_eq!(range(b"  a  bb c ", &k("2b,2"), None), 5..7);
        assert_eq!(range(b"  a  bb c ", &k("1,9"), None), 0..10);
        assert_eq!(range(b"a b", &k("3"), None), 3..3);
        assert_eq!(range(b"a b", &k("2,1"), None), 1..1);
        assert_eq!(range(b"a  ", &k("2"), None), 1..3);
        assert_eq!(range(b"", &k("1"), None), 0..0);
        assert_eq!(range(b"a::b:", &k("2"), Some(b':')), 2..5);
        assert_eq!(range(b"a::b:", &k("2,3"), Some(b':')), 2..4);
        assert_eq!(range(b"a::b:", &k("4"), Some(b':')), 5..5);
        assert_eq!(range(b"a::b:", &k("5"), Some(b':')), 5..5);
    }

    #[test]
    fn numeric_codes_order_like_the_numbers() {
        let s = spec("n");
        let code = |line: &[u8]| s.prepare(line).numeric_code();
        let ascending: [&[u8]; 10] = [
            b"-99999999999999999999999",
            b"-10",
            b"-1.5",
            b"-0.0001",
            b"0",
            b"0.0001",
            b"1",
            b"1.5",
            b"10",
            b"99999999999999999999999",
        ];
        for pair in ascending.windows(2) {
            assert!(code(pair[0]) < code(pair[1]), "{pair:?}");
            assert_eq!(s.compare(pair[0], pair[1]), Ordering::Less);
        }
        // Every spelling of zero is one code, as they compare equal.
        for zero in [&b"-0"[..], b"00", b"+0", b"-.0", b"x", b""] {
            assert_eq!(code(zero), code(b"0"), "{zero:?}");
        }
    }

    #[test]
    fn key_equality_for_unique() {
        let s = spec("k1n");
        assert!(s.key_equal(b"01 x", b"1 y"));
        assert!(!s.key_equal(b"1 x", b"2 x"));
    }
}
