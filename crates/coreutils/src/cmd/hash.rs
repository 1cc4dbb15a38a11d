//! `sha1sum` — the paper's class-N exemplar.

use std::io::{self, Read};

use crate::args::scanned;
use crate::sha1::Sha1;
use crate::{open_or_report, CmdIo, Command, ExitStatus};

/// `sha1sum [file…]` — print `<hex>  <name>` per input.
pub struct Sha1Sum;

impl Command for Sha1Sum {
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus> {
        let files = scanned!(io, args, "sha1sum", |_, _| Ok(())).inputs();
        let mut status = 0;
        for f in files {
            let Some(mut r) = open_or_report(&io.fs, "sha1sum", f, io.stdin, io.stderr)? else {
                status = 1;
                continue;
            };
            let mut h = Sha1::new();
            let mut buf = [0u8; 64 * 1024];
            loop {
                let n = r.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                h.update(&buf[..n]);
            }
            writeln!(io.stdout, "{}  {}", crate::sha1::to_hex(&h.finish()), f)?;
        }
        Ok(status)
    }
}

#[cfg(test)]
mod tests {
    use crate::fs::MemFs;
    use crate::{run_command, Registry};
    use std::sync::Arc;

    #[test]
    fn hashes_stdin() {
        let out = run_command(
            &Registry::standard(),
            Arc::new(MemFs::new()),
            &["sha1sum"],
            b"abc",
        )
        .expect("run");
        let s = String::from_utf8(out.stdout).expect("utf8");
        assert!(s.starts_with("a9993e364706816aba3e25717850c26c9cd0d89d"));
    }

    #[test]
    fn hashes_files_with_names() {
        let fs = Arc::new(MemFs::new());
        fs.add("page1", b"".to_vec());
        let out = run_command(&Registry::standard(), fs, &["sha1sum", "page1"], b"").expect("run");
        let s = String::from_utf8(out.stdout).expect("utf8");
        assert_eq!(s, "da39a3ee5e6b4b0d3255bfef95601890afd80709  page1\n");
    }
}
