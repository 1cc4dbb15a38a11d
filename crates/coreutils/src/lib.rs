//! From-scratch implementations of the POSIX/GNU commands used by the
//! PaSh benchmarks.
//!
//! Every command implements [`Command`] over an abstract I/O context
//! ([`CmdIo`]), so the same implementation runs (i) in-process inside
//! the threaded DFG executor, (ii) under the `pashc` multi-call binary
//! from a real `/bin/sh`, and (iii) inside unit tests against an
//! in-memory filesystem.
//!
//! Every command that takes options or files reads its argv through
//! one scanner, [`args::scan`], against its entry in one table,
//! [`args::GRAMMARS`]; the compiler's annotation classifier,
//! aggregator picker and cost model read an invocation through the
//! same scan and the same entry ([`args::read`], which also makes the
//! checks a command makes on its values and operand count before it
//! reads input), so a word is an option, a value or an operand to both
//! alike. The scan is GNU
//! getopt's: short options cluster (`-cd`, `-sf2`); a value is the
//! rest of its word or the next word; `--` ends the options, `-` is
//! stdin, and options may follow operands except under `xargs`, whose
//! first operand starts its inner command; `head -N`, `tail -N` and
//! `tail +N` are read as `-n`'s value when the count is the first
//! word. An unknown option or a missing value is a [`usage_error`],
//! never a file name: so are `head -n -N`, every long option but
//! `sort --parallel=N`, `cat -A`, `nl -b…`, `grep -q` and `tee -a`.
//! `echo` and `seq` are not scanned.
//!
//! # Examples
//!
//! ```
//! use pash_coreutils::{run_command, Registry, fs::MemFs};
//! use std::sync::Arc;
//!
//! let reg = Registry::standard();
//! let fs = Arc::new(MemFs::new());
//! let out = run_command(&reg, fs, &["tr", "a-z", "A-Z"], b"hello\n").unwrap();
//! assert_eq!(out.stdout, b"HELLO\n");
//! ```

pub mod args;
pub mod bytemask;
pub mod cmd;
pub mod fs;
pub mod lines;
pub mod sha1;
pub mod sortkeys;

use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

use fs::Fs;

/// Exit status of a command (0 = success, like the shell).
pub type ExitStatus = i32;

/// Exit status conventionally reported for a SIGPIPE death.
pub const SIGPIPE_STATUS: ExitStatus = 141;

/// I/O context handed to a command invocation.
pub struct CmdIo<'a> {
    /// Standard input.
    pub stdin: &'a mut dyn BufRead,
    /// Standard output.
    pub stdout: &'a mut dyn Write,
    /// Standard error.
    pub stderr: &'a mut dyn Write,
    /// Filesystem used to resolve file arguments.
    pub fs: Arc<dyn Fs>,
    /// Command registry (used by `xargs` to run inner commands).
    pub registry: &'a Registry,
}

/// A runnable command.
pub trait Command: Send + Sync {
    /// Runs the command.
    ///
    /// `args` excludes the command name. A [`io::ErrorKind::BrokenPipe`]
    /// error is the analogue of dying from SIGPIPE and is handled by
    /// callers.
    fn run(&self, args: &[String], io: &mut CmdIo<'_>) -> io::Result<ExitStatus>;
}

/// A name → command table.
#[derive(Clone)]
pub struct Registry {
    table: Arc<HashMap<&'static str, Arc<dyn Command>>>,
}

impl Registry {
    /// Builds a registry from a list of commands, each by its name.
    pub fn from_commands(cmds: Vec<(&'static str, Arc<dyn Command>)>) -> Self {
        Registry {
            table: Arc::new(cmds.into_iter().collect()),
        }
    }

    /// The full standard registry of this crate.
    pub fn standard() -> Self {
        Self::from_commands(cmd::all_commands())
    }

    /// Looks up a command by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Command>> {
        self.table.get(name).cloned()
    }

    /// Lists the registered command names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.table.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("commands", &self.table.len())
            .finish()
    }
}

/// Captured output of [`run_command`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Captured {
    /// Bytes written to stdout.
    pub stdout: Vec<u8>,
    /// Bytes written to stderr.
    pub stderr: Vec<u8>,
    /// Exit status.
    pub status: ExitStatus,
}

/// Convenience runner: executes `argv` with `input` on stdin and
/// captures stdout/stderr.
///
/// # Errors
///
/// Returns an error when the command is unknown or when it fails with
/// an I/O error other than `BrokenPipe`.
pub fn run_command(
    registry: &Registry,
    fs: Arc<dyn Fs>,
    argv: &[&str],
    input: &[u8],
) -> io::Result<Captured> {
    let (name, args) = argv
        .split_first()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty argv"))?;
    let cmd = registry
        .get(name)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{name}: not found")))?;
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    // A slice is its own `BufRead`: the command sees the whole input
    // as one block, uncopied.
    let mut stdin = input;
    // Most commands write about as much as they read; reserving that
    // up front (untouched pages cost nothing) spares a large output
    // its chain of grow-and-copy reallocations.
    let mut stdout = Vec::with_capacity(input.len());
    let mut stderr = Vec::new();
    let status = {
        let mut cio = CmdIo {
            stdin: &mut stdin,
            stdout: &mut stdout,
            stderr: &mut stderr,
            fs,
            registry,
        };
        match cmd.run(&args, &mut cio) {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => SIGPIPE_STATUS,
            Err(e) => return Err(e),
        }
    };
    Ok(Captured {
        stdout,
        stderr,
        status,
    })
}

/// A command's input operand: its own stdin, borrowed, or an opened
/// file. Borrowing stdin is what lets a command on a pipe work on the
/// stream as it arrives — and stop reading it — instead of draining
/// it into a private copy first.
pub enum Input<'a> {
    /// The `-` operand (or no operand at all): the command's stdin.
    Stdin(&'a mut dyn BufRead),
    /// A file operand.
    File(Box<dyn BufRead + Send>),
}

impl io::Read for Input<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Input::Stdin(r) => r.read(buf),
            Input::File(r) => r.read(buf),
        }
    }
}

impl BufRead for Input<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        match self {
            Input::Stdin(r) => r.fill_buf(),
            Input::File(r) => r.fill_buf(),
        }
    }

    fn consume(&mut self, amt: usize) {
        match self {
            Input::Stdin(r) => r.consume(amt),
            Input::File(r) => r.consume(amt),
        }
    }
}

/// Opens an input source: `-` means "the rest of stdin" (so of
/// several `-` operands the first gets the stream).
pub fn open_input<'a>(
    fs: &Arc<dyn Fs>,
    path: &str,
    stdin: &'a mut dyn BufRead,
) -> io::Result<Input<'a>> {
    if path == "-" {
        Ok(Input::Stdin(stdin))
    } else {
        fs.open_buffered(path).map(Input::File)
    }
}

/// [`open_input`] for a command that goes on past an operand it
/// cannot open, as GNU's do: the error goes to `stderr` in GNU's words
/// and `None` comes back, for the caller to skip the operand and fail
/// at the end.
pub fn open_or_report<'a>(
    fs: &Arc<dyn Fs>,
    name: &str,
    path: &str,
    stdin: &'a mut dyn BufRead,
    stderr: &mut dyn Write,
) -> io::Result<Option<Input<'a>>> {
    let e = match open_input(fs, path, stdin) {
        Ok(r) => return Ok(Some(r)),
        Err(e) => error_text(&e),
    };
    match name {
        "head" | "tail" => writeln!(stderr, "{name}: cannot open '{path}' for reading: {e}")?,
        "sort" => writeln!(stderr, "sort: cannot read: {path}: {e}")?,
        _ => writeln!(stderr, "{name}: {path}: {e}")?,
    }
    Ok(None)
}

/// An I/O error as GNU's utilities print it: the system's message,
/// without the ` (os error N)` Rust appends to it.
pub fn error_text(e: &io::Error) -> String {
    let text = e.to_string();
    let end = text.find(" (os error ").unwrap_or(text.len());
    text[..end].to_string()
}

/// Writes a usage error to stderr and returns GNU's status for one:
/// 2 for `sort`, `grep` and `diff` (whose 1 means "unordered", "no
/// match" and "files differ"), 1 for every other command.
pub fn usage_error(io: &mut CmdIo<'_>, name: &str, msg: &str) -> io::Result<ExitStatus> {
    writeln!(io.stderr, "{name}: {msg}")?;
    Ok(if matches!(name, "sort" | "grep" | "diff") {
        2
    } else {
        1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;

    #[test]
    fn registry_lookup() {
        let reg = Registry::standard();
        assert!(reg.get("cat").is_some());
        assert!(reg.get("definitely-not-a-command").is_none());
        assert!(reg.names().len() > 20);
    }

    #[test]
    fn run_command_unknown_fails() {
        let reg = Registry::standard();
        let fs = Arc::new(MemFs::new());
        assert!(run_command(&reg, fs, &["nope"], b"").is_err());
    }

    #[test]
    fn run_command_empty_argv_fails() {
        let reg = Registry::standard();
        let fs = Arc::new(MemFs::new());
        assert!(run_command(&reg, fs, &[], b"").is_err());
    }
}
