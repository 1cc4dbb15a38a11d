//! The paper's running example (§2.1, Fig. 1): maximum temperature
//! per year over a NOAA-style archive, including the `for` loop, the
//! `xargs`-driven fetch, and the decompression stage — parallelized
//! end to end and checked against the generator's ground truth.
//!
//! ```text
//! cargo run --example weather
//! ```

use std::sync::Arc;

use pash::coreutils::{fs::MemFs, Registry};
use pash::runtime::exec::{run_script, ExecConfig};
use pash::workloads::{generate_noaa, NoaaSpec};
use pash_bench_shim::noaa_script;

/// The Fig. 1 pipeline over the local mirror: `fetch` reads a mirror
/// path where `curl` would download a URL, and `unrle` decodes
/// run-length records where `gunzip` would inflate.
mod pash_bench_shim {
    /// Builds the weather script for a year range.
    pub fn noaa_script(from: u32, to: u32) -> String {
        format!(
            "base=noaa\nfor y in {{{from}..{to}}}; do\n  cat $base/$y/index.txt | grep rec | tr -s ' ' | cut -d ' ' -f 9 | sed \"s;^;$base/$y/;\" | xargs -n 1 fetch | unrle | cut -c 89-92 | grep -iv 999 | sort -rn | head -n 1 | sed \"s/^/Maximum temperature for $y is: /\"\ndone"
        )
    }
}

fn main() {
    let fs = Arc::new(MemFs::new());
    let spec = NoaaSpec {
        years: 2015..=2020,
        files_per_year: 4,
        records_per_file: 300,
        seed: 42,
    };
    let truths = generate_noaa(&fs, "noaa", &spec);
    let script = noaa_script(2015, 2020);
    println!("weather script (Fig. 1 shape):\n{script}\n");

    let registry = Registry::standard();
    for width in [1usize, 10] {
        let out = run_script(
            &script,
            &pash::core::compile::PashConfig {
                width,
                split: pash::core::dfg::SplitPolicy::Sized,
                ..Default::default()
            },
            &registry,
            fs.clone(),
            Vec::new(),
            &ExecConfig::default(),
        )
        .expect("run");
        let text = String::from_utf8(out.stdout).expect("utf8");
        println!("--- width {width} ---\n{text}");
        for (year, max) in &truths {
            assert!(
                text.contains(&format!("Maximum temperature for {year} is: {max:04}")),
                "wrong maximum for {year}"
            );
        }
    }
    println!("all yearly maxima match the generator's ground truth at every width");
}
