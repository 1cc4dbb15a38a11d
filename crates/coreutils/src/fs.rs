//! Filesystem abstraction used by file-reading commands.
//!
//! Two implementations:
//! * [`MemFs`] — an in-memory tree for hermetic tests, the threaded
//!   executor, and the benchmark harness;
//! * [`RealFs`] — the host filesystem (used by `pashc` and examples).

use std::collections::HashMap;
use std::io::{self, BufRead, Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Abstract filesystem interface.
pub trait Fs: Send + Sync {
    /// Opens a file for reading.
    fn open(&self, path: &str) -> io::Result<Box<dyn Read + Send>>;

    /// Creates (truncates) a file for writing.
    fn create(&self, path: &str) -> io::Result<Box<dyn Write + Send>>;

    /// Returns the size of a file in bytes (used by the size-aware
    /// splitter and the segment reader).
    fn size(&self, path: &str) -> io::Result<u64>;

    /// Lists file names under a directory prefix, sorted.
    fn list(&self, dir: &str) -> io::Result<Vec<String>>;

    /// Opens a file with buffering.
    fn open_buffered(&self, path: &str) -> io::Result<Box<dyn BufRead + Send>> {
        Ok(Box::new(io::BufReader::with_capacity(
            crate::lines::BLOCK_SIZE,
            self.open(path)?,
        )))
    }

    /// Opens the byte range `[start, end)` of a file (clamped to the
    /// file length; empty when `end <= start`) as a reader. A missing
    /// file is an error whatever the range. The default implementation
    /// opens the file and skips to `start`; backends with random access
    /// override it so a k-wide stage reads O(len/k) bytes per copy
    /// instead of the whole file.
    fn open_range(&self, path: &str, start: u64, end: u64) -> io::Result<Box<dyn Read + Send>> {
        let mut r = self.open(path)?;
        io::copy(&mut Read::by_ref(&mut r).take(start), &mut io::sink())?;
        Ok(Box::new(r.take(end.saturating_sub(start))))
    }
}

type FileMap = Arc<Mutex<HashMap<String, Arc<Vec<u8>>>>>;

/// An in-memory filesystem.
///
/// Cloning is cheap (shared storage). [`Fs::create`] empties the file
/// when it is called, as `open(2)`'s `O_TRUNC` does; what is written
/// becomes visible when the returned writer is dropped.
#[derive(Default, Clone)]
pub struct MemFs {
    files: FileMap,
}

impl MemFs {
    /// Creates an empty in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a file.
    pub fn add(&self, path: impl Into<String>, contents: impl Into<Vec<u8>>) {
        self.files
            .lock()
            .expect("MemFs lock poisoned")
            .insert(normalize(&path.into()), Arc::new(contents.into()));
    }

    /// Adds (or replaces) a file without copying the contents — the
    /// `Arc` is shared with the caller. This is how cached corpora are
    /// mounted into per-test filesystems at zero marginal cost.
    pub fn add_shared(&self, path: impl Into<String>, contents: Arc<Vec<u8>>) {
        self.files
            .lock()
            .expect("MemFs lock poisoned")
            .insert(normalize(&path.into()), contents);
    }

    /// Returns an independent filesystem holding the same files.
    ///
    /// Contents are `Arc`-shared (no byte copies), but the trees are
    /// separate: writes to the snapshot do not touch `self` — unlike
    /// [`Clone`], which shares the tree itself.
    pub fn snapshot(&self) -> MemFs {
        let files = self.files.lock().expect("MemFs lock poisoned").clone();
        MemFs {
            files: Arc::new(Mutex::new(files)),
        }
    }

    /// Reads a whole file.
    pub fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        self.files
            .lock()
            .expect("MemFs lock poisoned")
            .get(&normalize(path))
            .map(|a| a.as_ref().clone())
            .ok_or_else(not_found)
    }

    /// Lists every file with its shared contents, sorted by path.
    ///
    /// The `Arc`s are the storage cells themselves, so a caller can
    /// detect "this file changed since the snapshot was taken" by
    /// pointer comparison — no byte reads — which is how the service
    /// diffs a run's filesystem against its template.
    pub fn entries(&self) -> Vec<(String, Arc<Vec<u8>>)> {
        let mut v: Vec<(String, Arc<Vec<u8>>)> = self
            .files
            .lock()
            .expect("MemFs lock poisoned")
            .iter()
            .map(|(k, a)| (k.clone(), a.clone()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// The files this filesystem holds that `base` lacks or holds
    /// other contents for, sorted by path: what a run on a
    /// [`MemFs::snapshot`] of `base` created or wrote. Contents are
    /// compared by `Arc` identity, so an unchanged file costs no byte
    /// read. `self` is dropped before the bytes are taken, so a
    /// written file's bytes are moved out; they are copied only if
    /// something else still shares them.
    pub fn changed_since(self, base: &MemFs) -> Vec<(String, Vec<u8>)> {
        let base: HashMap<String, Arc<Vec<u8>>> = base.entries().into_iter().collect();
        let changed: Vec<_> = self
            .entries()
            .into_iter()
            .filter(|(path, contents)| base.get(path).is_none_or(|b| !Arc::ptr_eq(b, contents)))
            .collect();
        drop(self);
        changed
            .into_iter()
            .map(|(path, contents)| {
                let bytes =
                    Arc::try_unwrap(contents).unwrap_or_else(|shared| shared.as_ref().clone());
                (path, bytes)
            })
            .collect()
    }

    /// Lists all paths, sorted.
    pub fn paths(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .files
            .lock()
            .expect("MemFs lock poisoned")
            .keys()
            .cloned()
            .collect();
        v.sort();
        v
    }
}

fn normalize(p: &str) -> String {
    p.trim_start_matches("./").to_string()
}

/// A missing file, in the system's words (a command names the path).
fn not_found() -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, "No such file or directory")
}

impl Fs for MemFs {
    fn open(&self, path: &str) -> io::Result<Box<dyn Read + Send>> {
        self.open_range(path, 0, u64::MAX)
    }

    /// Empties the file at once, or fails with `NotFound`, as creating
    /// a file in a missing directory does, unless the parent directory
    /// is the root or holds a stored file: the tree has no empty
    /// directories.
    fn create(&self, path: &str) -> io::Result<Box<dyn Write + Send>> {
        let path = normalize(path);
        let mut files = self.files.lock().expect("MemFs lock poisoned");
        if let Some((dir, _)) = path.rsplit_once('/').filter(|(dir, _)| !dir.is_empty()) {
            let prefix = format!("{dir}/");
            if !files.keys().any(|k| k.starts_with(&prefix)) {
                return Err(not_found());
            }
        }
        files.insert(path.clone(), Arc::default());
        drop(files);
        Ok(Box::new(MemWriter {
            path,
            buf: Vec::new(),
            files: self.files.clone(),
        }))
    }

    fn size(&self, path: &str) -> io::Result<u64> {
        self.files
            .lock()
            .expect("MemFs lock poisoned")
            .get(&normalize(path))
            .map(|a| a.len() as u64)
            .ok_or_else(not_found)
    }

    fn open_range(&self, path: &str, start: u64, end: u64) -> io::Result<Box<dyn Read + Send>> {
        let data = self
            .files
            .lock()
            .expect("MemFs lock poisoned")
            .get(&normalize(path))
            .cloned()
            .ok_or_else(not_found)?;
        let len = data.len() as u64;
        let pos = start.min(len) as usize;
        let end = (end.min(len) as usize).max(pos);
        Ok(Box::new(ArcReader { data, pos, end }))
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        let prefix = if dir.is_empty() || dir == "." {
            String::new()
        } else {
            format!("{}/", normalize(dir).trim_end_matches('/'))
        };
        let mut v: Vec<String> = self
            .files
            .lock()
            .expect("MemFs lock poisoned")
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        v.sort();
        Ok(v)
    }
}

/// A reader over `data[pos..end]` of shared immutable file contents
/// (`pos <= end <= data.len()`).
struct ArcReader {
    data: Arc<Vec<u8>>,
    pos: usize,
    end: usize,
}

impl Read for ArcReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = &self.data[self.pos..self.end];
        let n = remaining.len().min(buf.len());
        buf[..n].copy_from_slice(&remaining[..n]);
        self.pos += n;
        Ok(n)
    }

    /// The length is known: one exact reservation and one copy for a
    /// consumer that takes its whole input (`sort`), where the default
    /// grows the buffer by doubling.
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let rest = &self.data[self.pos..self.end];
        buf.extend_from_slice(rest);
        self.pos = self.end;
        Ok(rest.len())
    }
}

/// A buffered writer that publishes contents on drop.
struct MemWriter {
    path: String,
    buf: Vec<u8>,
    files: FileMap,
}

impl Write for MemWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for MemWriter {
    fn drop(&mut self) {
        self.files
            .lock()
            .expect("MemFs lock poisoned")
            .insert(self.path.clone(), Arc::new(std::mem::take(&mut self.buf)));
    }
}

/// The host filesystem, rooted at a directory.
pub struct RealFs {
    root: PathBuf,
}

impl RealFs {
    /// Creates a host filesystem rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    fn resolve(&self, path: &str) -> PathBuf {
        if path.starts_with('/') {
            PathBuf::from(path)
        } else {
            self.root.join(path)
        }
    }
}

impl Fs for RealFs {
    fn open(&self, path: &str) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(std::fs::File::open(self.resolve(path))?))
    }

    /// Creates or truncates the file; a missing directory is an error,
    /// as for the shell's `>` and GNU `tee`, not something to make.
    fn create(&self, path: &str) -> io::Result<Box<dyn Write + Send>> {
        Ok(Box::new(std::fs::File::create(self.resolve(path))?))
    }

    fn size(&self, path: &str) -> io::Result<u64> {
        Ok(std::fs::metadata(self.resolve(path))?.len())
    }

    fn open_range(&self, path: &str, start: u64, end: u64) -> io::Result<Box<dyn Read + Send>> {
        use std::io::Seek;
        let mut f = std::fs::File::open(self.resolve(path))?;
        f.seek(io::SeekFrom::Start(start))?;
        Ok(Box::new(f.take(end.saturating_sub(start))))
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(self.resolve(dir))? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(format!(
                    "{}/{}",
                    dir.trim_end_matches('/'),
                    entry.file_name().to_string_lossy()
                ));
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfs_roundtrip() {
        let fs = MemFs::new();
        fs.add("a.txt", b"hello".to_vec());
        let mut r = fs.open("a.txt").expect("open");
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).expect("read");
        assert_eq!(buf, b"hello");
        assert_eq!(fs.size("a.txt").expect("size"), 5);
    }

    #[test]
    fn memfs_missing_file() {
        let fs = MemFs::new();
        assert!(fs.open("nope").is_err());
        assert!(fs.size("nope").is_err());
    }

    #[test]
    fn memfs_write_commits_on_drop() {
        let fs = MemFs::new();
        {
            let mut w = fs.create("out.txt").expect("create");
            w.write_all(b"data").expect("write");
        }
        assert_eq!(fs.read("out.txt").expect("read"), b"data");
    }

    #[test]
    fn memfs_changed_since_moves_what_a_snapshot_wrote_out() {
        let base = MemFs::new();
        base.add("./kept", b"1".to_vec());
        base.add("rewritten", b"2".to_vec());
        let run = base.snapshot();
        run.add("rewritten", b"2".to_vec());
        run.create("new")
            .expect("create")
            .write_all(b"3")
            .expect("write");
        // Sorted by path: kept, new, rewritten.
        let new = run.entries()[1].1.as_ptr();
        let changed = run.changed_since(&base);
        let paths: Vec<&str> = changed.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["new", "rewritten"], "same bytes, new contents");
        assert_eq!(changed[0].1.as_ptr(), new, "moved, not copied");
        assert_eq!(base.read("rewritten").expect("base untouched"), b"2");
        assert!(base.read("new").is_err());
    }

    #[test]
    fn memfs_list_prefix() {
        let fs = MemFs::new();
        fs.add("d/a", b"1".to_vec());
        fs.add("d/b", b"2".to_vec());
        fs.add("e/c", b"3".to_vec());
        assert_eq!(fs.list("d").expect("list"), vec!["d/a", "d/b"]);
    }

    #[test]
    fn memfs_normalizes_dot_slash() {
        let fs = MemFs::new();
        fs.add("./x", b"1".to_vec());
        assert!(fs.open("x").is_ok());
    }

    #[test]
    fn memfs_writer_outlives_handle() {
        let w = {
            let fs = MemFs::new();
            fs.create("late.txt").expect("create")
        };
        // The writer holds shared storage; dropping it after the
        // creating handle is gone must be fine.
        drop(w);
    }

    #[test]
    fn memfs_clone_shares_storage() {
        let a = MemFs::new();
        let b = a.clone();
        a.add("x", b"1".to_vec());
        assert_eq!(b.read("x").expect("read"), b"1");
    }

    #[test]
    fn memfs_snapshot_isolates_writes() {
        let a = MemFs::new();
        a.add("x", b"1".to_vec());
        let b = a.snapshot();
        assert_eq!(b.read("x").expect("read"), b"1");
        b.add("y", b"2".to_vec());
        assert!(a.read("y").is_err(), "snapshot write leaked to source");
        a.add("z", b"3".to_vec());
        assert!(b.read("z").is_err(), "source write leaked to snapshot");
    }

    #[test]
    fn memfs_add_shared_mounts_without_copy() {
        let fs = MemFs::new();
        let data = Arc::new(b"shared".to_vec());
        fs.add_shared("s.txt", data.clone());
        assert_eq!(fs.read("s.txt").expect("read"), b"shared");
        // Two references: the caller's and the filesystem's.
        assert_eq!(Arc::strong_count(&data), 2);
    }

    fn range(fs: &dyn Fs, path: &str, start: u64, end: u64) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        fs.open_range(path, start, end)?.read_to_end(&mut out)?;
        Ok(out)
    }

    #[test]
    fn memfs_open_range_native() {
        let fs = MemFs::new();
        fs.add("r.txt", b"0123456789".to_vec());
        assert_eq!(range(&fs, "r.txt", 2, 5).expect("range"), b"234");
        assert_eq!(range(&fs, "r.txt", 0, 100).expect("range"), b"0123456789");
        assert_eq!(range(&fs, "r.txt", 7, 7).expect("range"), b"");
        assert_eq!(range(&fs, "r.txt", 20, 30).expect("range"), b"");
        assert!(range(&fs, "nope", 0, 1).is_err());
        // A missing file is an error even for an empty range.
        assert!(range(&fs, "nope", 3, 3).is_err());
    }

    #[test]
    fn default_open_range_matches_native() {
        // A wrapper that hides MemFs's override, forcing the trait's
        // open+skip fallback.
        struct OpenOnly(MemFs);
        impl Fs for OpenOnly {
            fn open(&self, path: &str) -> io::Result<Box<dyn Read + Send>> {
                self.0.open(path)
            }
            fn create(&self, path: &str) -> io::Result<Box<dyn Write + Send>> {
                self.0.create(path)
            }
            fn size(&self, path: &str) -> io::Result<u64> {
                self.0.size(path)
            }
            fn list(&self, dir: &str) -> io::Result<Vec<String>> {
                self.0.list(dir)
            }
        }
        let fs = MemFs::new();
        fs.add("r.txt", b"abcdefghij".to_vec());
        let fallback = OpenOnly(fs.clone());
        for (s, e) in [(0, 0), (0, 4), (3, 9), (5, 100), (9, 3)] {
            assert_eq!(
                range(&fallback, "r.txt", s, e).expect("fallback"),
                range(&fs, "r.txt", s, e).expect("native"),
                "range [{s}, {e})"
            );
        }
        // Missing files error through the fallback too, even when the
        // requested range is empty.
        assert!(range(&fallback, "nope", 0, 0).is_err());
        assert!(range(&fallback, "nope", 0, 5).is_err());
    }

    #[test]
    fn realfs_open_range_seeks() {
        let dir = std::env::temp_dir().join(format!("pash-fs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let fs = RealFs::new(&dir);
        {
            let mut w = fs.create("f.txt").expect("create");
            w.write_all(b"hello world").expect("write");
        }
        assert_eq!(range(&fs, "f.txt", 6, 11).expect("range"), b"world");
        assert_eq!(range(&fs, "f.txt", 6, 6).expect("range"), b"");
        assert_eq!(range(&fs, "f.txt", 9, 3).expect("range"), b"");
        assert_eq!(range(&fs, "f.txt", 6, 100).expect("range"), b"world");
        assert!(range(&fs, "nope", 2, 2).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
