//! Deterministic synthetic workload generators for the PaSh benchmark
//! suite.
//!
//! The paper evaluates on downloaded corpora (Project-Gutenberg-style
//! text, NOAA weather archives, Wikipedia dumps); this crate generates
//! statistically similar inputs locally: [`text_corpus`] stands in
//! for the books, [`generate_noaa`] for the NOAA archives (fetched by
//! `fetch`, run-length encoded for `unrle`) and [`generate_wiki`] for
//! the Wikipedia pages. All generators are seeded and reproducible.

pub mod nlp;
pub mod rng;

use pash_coreutils::fs::MemFs;

use crate::rng::SplitMix64;

/// A small English-like vocabulary used by the text generators.
const VOCAB: &[&str] = &[
    "the",
    "of",
    "and",
    "a",
    "to",
    "in",
    "is",
    "you",
    "that",
    "it",
    "he",
    "was",
    "for",
    "on",
    "are",
    "as",
    "with",
    "his",
    "they",
    "time",
    "river",
    "mountain",
    "system",
    "shell",
    "pipe",
    "stream",
    "parallel",
    "data",
    "running",
    "cats",
    "tables",
    "weather",
    "maximum",
    "minimum",
    "temperature",
    "analysis",
    "compiler",
    "graph",
    "node",
    "edge",
    "merge",
    "split",
    "eager",
    "annotation",
    "command",
    "script",
    "process",
    "kernel",
    "buffer",
    "signal",
];

/// Harmonic normalizer for [`zipf_word`]: Σ 1/(k+1) over VOCAB ranks.
const VOCAB_HARMONIC: f64 = {
    let mut h = 0.0;
    let mut k = 0;
    while k < VOCAB.len() {
        h += 1.0 / (k + 1) as f64;
        k += 1;
    }
    h
};

/// Draws a Zipf-ish ranked word from the vocabulary.
fn zipf_word(rng: &mut SplitMix64) -> &'static str {
    // P(rank k) ∝ 1/(k+1): sample by scanning a harmonic prefix.
    let mut x = rng.gen_f64() * VOCAB_HARMONIC;
    for (k, w) in VOCAB.iter().enumerate() {
        x -= 1.0 / (k + 1) as f64;
        if x <= 0.0 {
            return w;
        }
    }
    VOCAB[0]
}

/// Generates roughly `bytes` of text: lines of 4–10 words with
/// punctuation and mixed case.
pub fn text_corpus(seed: u64, bytes: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(bytes + 64);
    while out.len() < bytes {
        let words = rng.gen_range_inclusive(4, 10);
        for i in 0..words {
            let w = zipf_word(&mut rng);
            if i > 0 {
                out.push(b' ');
            }
            if rng.gen_bool(0.12) {
                // Capitalize.
                out.extend(w.as_bytes().iter().enumerate().map(|(j, &b)| {
                    if j == 0 {
                        b.to_ascii_uppercase()
                    } else {
                        b
                    }
                }));
            } else {
                out.extend_from_slice(w.as_bytes());
            }
            if rng.gen_bool(0.08) {
                out.push(b',');
            }
        }
        if rng.gen_bool(0.5) {
            out.push(b'.');
        }
        out.push(b'\n');
    }
    out
}

/// A sorted dictionary of the vocabulary (for the Spell benchmark).
pub fn dictionary() -> Vec<u8> {
    let mut words: Vec<&str> = VOCAB.to_vec();
    words.sort_unstable();
    words.dedup();
    let mut out = Vec::new();
    for w in words {
        out.extend_from_slice(w.as_bytes());
        out.push(b'\n');
    }
    out
}

/// Parameters of the NOAA-style weather mirror (§2.1, Fig. 1).
#[derive(Debug, Clone)]
pub struct NoaaSpec {
    /// Years covered (e.g. 2015..=2020 in the paper).
    pub years: std::ops::RangeInclusive<u32>,
    /// Station files per year.
    pub files_per_year: usize,
    /// Records per station file.
    pub records_per_file: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NoaaSpec {
    fn default() -> Self {
        NoaaSpec {
            years: 2015..=2020,
            files_per_year: 8,
            records_per_file: 500,
            seed: 42,
        }
    }
}

/// Generates the NOAA mirror into `fs` under `base`:
/// `base/<year>/index.txt` lists station files ls-style (9th field is
/// the file name, mirroring Fig. 1's `cut -d" " -f9`), and each
/// station file is RLE-"compressed" fixed-width records whose columns
/// 89–92 hold the temperature (tenths of °C; `9999` = missing).
///
/// Returns the list of `(year, max_valid_temperature_field)` ground
/// truths, where the field is the 4-digit column value.
pub fn generate_noaa(fs: &MemFs, base: &str, spec: &NoaaSpec) -> Vec<(u32, u32)> {
    let mut rng = SplitMix64::new(spec.seed);
    let mut truths = Vec::new();
    for year in spec.years.clone() {
        let mut index = String::new();
        let mut year_max: u32 = 0;
        for f in 0..spec.files_per_year {
            let fname = format!("{year:04}-{f:03}.rec");
            // An ls -l style line: 8 metadata fields then the name.
            index.push_str(&format!(
                "-rw-r--r-- 1 noaa noaa {} Jan {} {} {}\n",
                1000 + f,
                1 + (f % 28),
                year,
                fname
            ));
            let mut lines: Vec<Vec<u8>> = Vec::with_capacity(spec.records_per_file);
            for r in 0..spec.records_per_file {
                // Fixed-width record: 88 filler columns, then a
                // 4-digit temperature field at columns 89–92.
                let field: u32 = if rng.gen_bool(0.02) {
                    9990 + rng.gen_range(0, 10) as u32 // Bogus `999x` marker.
                } else {
                    rng.gen_range(0, 450) as u32
                };
                let is_bogus = field.to_string().contains("999");
                if !is_bogus {
                    year_max = year_max.max(field);
                }
                let mut line =
                    format!("{:08}{:>10}{:>70}", r, format!("st{f:04}"), year).into_bytes();
                line.truncate(88);
                while line.len() < 88 {
                    line.push(b' ');
                }
                line.extend_from_slice(format!("{field:04}").as_bytes());
                lines.push(line);
            }
            let compressed = pash_coreutils::cmd::custom::rle_encode(&lines);
            fs.add(format!("{base}/{year}/{fname}"), compressed);
        }
        fs.add(format!("{base}/{year}/index.txt"), index.into_bytes());
        truths.push((year, year_max));
    }
    truths
}

/// Parameters of the Wikipedia-style mirror (§6.4).
#[derive(Debug, Clone)]
pub struct WikiSpec {
    /// Number of pages.
    pub pages: usize,
    /// Approximate HTML bytes per page.
    pub bytes_per_page: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WikiSpec {
    fn default() -> Self {
        WikiSpec {
            pages: 50,
            bytes_per_page: 4096,
            seed: 7,
        }
    }
}

/// Generates the wiki mirror: `base/urls.txt` (one page URL per line)
/// plus the HTML pages (one tag per line, entities included).
pub fn generate_wiki(fs: &MemFs, base: &str, spec: &WikiSpec) {
    let mut rng = SplitMix64::new(spec.seed);
    let mut urls = String::new();
    for p in 0..spec.pages {
        let path = format!("{base}/pages/page{p:05}.html");
        urls.push_str(&format!("http://wiki.example/{path}\n"));
        let mut html = String::from("<html>\n<head><title>Page</title></head>\n<body>\n");
        while html.len() < spec.bytes_per_page {
            let words = rng.gen_range_inclusive(5, 14);
            html.push_str("<p>");
            for i in 0..words {
                if i > 0 {
                    html.push(' ');
                }
                html.push_str(zipf_word(&mut rng));
                if rng.gen_bool(0.05) {
                    html.push_str(" &amp; ");
                }
            }
            html.push_str("</p>\n");
        }
        html.push_str("</body>\n</html>\n");
        fs.add(path, html.into_bytes());
    }
    fs.add(format!("{base}/urls.txt"), urls.into_bytes());
}

/// Generates a file of whitespace-delimited columns (for Unix50-style
/// pipelines): alternating word and numeric columns.
pub fn columnar_corpus(seed: u64, rows: usize, fields: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for _ in 0..rows {
        for f in 0..fields {
            if f > 0 {
                out.push(b' ');
            }
            if f % 2 == 0 {
                out.extend_from_slice(zipf_word(&mut rng).as_bytes());
            } else {
                out.extend_from_slice(rng.gen_range(0, 10_000).to_string().as_bytes());
            }
        }
        out.push(b'\n');
    }
    out
}

/// A corpus whose line lengths are heavily skewed: mostly short
/// records with a periodic run of very long ones — the shape that
/// makes line-count segmentation hand one worker most of the bytes.
pub fn skewed_corpus(seed: u64, bytes: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes + 512);
    let mut x = seed | 1;
    let mut i = 0u64;
    while out.len() < bytes {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // 1 line in 16 is ~60× longer than the rest, and the long
        // lines cluster in the second half of the file (so equal
        // line-count segments are very unequal byte-count segments).
        let long = i % 16 == 15 && out.len() > bytes / 2;
        if long {
            let word = [b'w', b'x', b'y', b'z'][(x >> 60) as usize % 4];
            out.extend(std::iter::repeat_n(word, 480));
        } else {
            out.extend_from_slice(format!("rec {} {:04x}", i, (x >> 48) as u16).as_bytes());
        }
        out.push(b'\n');
        i += 1;
    }
    out.truncate(bytes);
    if out.last() != Some(&b'\n') {
        out.push(b'\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        assert_eq!(text_corpus(1, 1000), text_corpus(1, 1000));
        assert_ne!(text_corpus(1, 1000), text_corpus(2, 1000));
    }

    #[test]
    fn corpus_reaches_size() {
        let c = text_corpus(3, 10_000);
        assert!(c.len() >= 10_000);
        assert!(c.len() < 11_000);
        assert_eq!(*c.last().expect("non-empty"), b'\n');
    }

    #[test]
    fn skewed_corpus_is_line_skewed() {
        let c = skewed_corpus(3, 64 * 1024);
        assert!((64 * 1024..=64 * 1024 + 1).contains(&c.len()));
        assert!(c.ends_with(b"\n"));
        // Equal line counts, very unequal bytes: the second half of
        // the lines carries the long ones.
        let lines: Vec<&[u8]> = c.split_inclusive(|&b| b == b'\n').collect();
        let (first, second) = lines.split_at(lines.len() / 2);
        let bytes = |ls: &[&[u8]]| ls.iter().map(|l| l.len()).sum::<usize>();
        assert!(bytes(second) > 2 * bytes(first));
    }

    #[test]
    fn dictionary_is_sorted_unique() {
        let d = dictionary();
        let lines: Vec<&[u8]> = d.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn noaa_mirror_structure() {
        let fs = MemFs::new();
        let spec = NoaaSpec {
            years: 2015..=2016,
            files_per_year: 2,
            records_per_file: 50,
            seed: 1,
        };
        let truths = generate_noaa(&fs, "noaa", &spec);
        assert_eq!(truths.len(), 2);
        let index = fs.read("noaa/2015/index.txt").expect("index");
        let lines: Vec<&[u8]> = index
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .collect();
        assert_eq!(lines.len(), 2);
        // 9th whitespace field is the file name.
        let f9 = pash_coreutils::lines::split_whitespace(lines[0])[8].to_vec();
        assert!(String::from_utf8(f9).expect("utf8").ends_with(".rec"));
        assert!(fs.read("noaa/2015/2015-000.rec").is_ok());
    }

    #[test]
    fn noaa_temperature_field_position() {
        let fs = MemFs::new();
        let spec = NoaaSpec {
            years: 2015..=2015,
            files_per_year: 1,
            records_per_file: 10,
            seed: 2,
        };
        generate_noaa(&fs, "noaa", &spec);
        let reg = pash_coreutils::Registry::standard();
        let out = pash_coreutils::run_command(
            &reg,
            std::sync::Arc::new(fs.clone()),
            &["unrle", "noaa/2015/2015-000.rec"],
            b"",
        )
        .expect("unrle");
        for line in out.stdout.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            assert_eq!(line.len(), 92, "fixed-width record");
            let temp = &line[88..92];
            assert!(temp.iter().all(|b| b.is_ascii_digit()));
        }
    }

    #[test]
    fn noaa_ground_truth_matches_pipeline() {
        // The Fig. 1 computation done directly must agree with the
        // generator's reported ground truth.
        let fs = MemFs::new();
        let spec = NoaaSpec {
            years: 2015..=2015,
            files_per_year: 3,
            records_per_file: 40,
            seed: 3,
        };
        let truths = generate_noaa(&fs, "noaa", &spec);
        let reg = pash_coreutils::Registry::standard();
        let mut max_seen: u32 = 0;
        for f in 0..3 {
            let out = pash_coreutils::run_command(
                &reg,
                std::sync::Arc::new(fs.clone()),
                &["unrle", &format!("noaa/2015/2015-{f:03}.rec")],
                b"",
            )
            .expect("unrle");
            for line in out.stdout.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                let field = std::str::from_utf8(&line[88..92])
                    .expect("utf8")
                    .parse::<u32>()
                    .expect("number");
                if !format!("{field:04}").contains("999") {
                    max_seen = max_seen.max(field);
                }
            }
        }
        assert_eq!(truths[0].1, max_seen);
    }

    #[test]
    fn wiki_mirror_structure() {
        let fs = MemFs::new();
        generate_wiki(
            &fs,
            "wiki",
            &WikiSpec {
                pages: 3,
                bytes_per_page: 512,
                seed: 1,
            },
        );
        let urls = fs.read("wiki/urls.txt").expect("urls");
        assert_eq!(
            urls.split(|&b| b == b'\n')
                .filter(|l| !l.is_empty())
                .count(),
            3
        );
        let page = fs.read("wiki/pages/page00000.html").expect("page");
        assert!(page.len() >= 512);
        assert!(page.starts_with(b"<html>"));
    }

    #[test]
    fn columnar_corpus_shape() {
        let c = columnar_corpus(5, 10, 4);
        for line in c.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            assert_eq!(pash_coreutils::lines::split_whitespace(line).len(), 4);
        }
    }
}
