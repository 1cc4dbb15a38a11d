//! `pashd` end-to-end: a real daemon process (spawned from the built
//! binary, so restarts cross a true process boundary and the
//! in-memory compile memo genuinely dies), driven over its
//! Unix-domain socket.
//!
//! * concurrent differential — N client threads firing mixed corpus
//!   scripts get byte-identical stdout/status/output-files to direct
//!   `pash::run`;
//! * restart — a fresh daemon process recompiles to identical results;
//! * no profile is kept — after 200 scripts Metrics has no
//!   `profile_regions`, and nothing is written under `--cache-dir`,
//!   not even after the drain;
//! * the same differential holds under the fault-injection
//!   supervisor, whose counters the Metrics reply reports;
//! * Metrics says which schedule each region ran under;
//! * the caller sets the width: a width-0 `Run` is refused, counted as
//!   an error, and the connection keeps serving;
//! * a stdin-fed request (the `light-stream` script on 4 MiB) sent twice
//!   on one connection matches a direct run both times;
//! * a reply over the frame cap is refused before a byte is sent: the
//!   client gets `Error`, the daemon counts it, the connection keeps
//!   serving;
//! * `pashd` and `pash-worker` speak one protocol: each refuses the
//!   other's verbs and keeps serving, and SIGTERM drains a worker's
//!   in-flight region attempts the way it drains `pashd`'s runs.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pash::core::compile::PashConfig;
use pash::core::dfg::SplitPolicy;
use pash::coreutils::fs::MemFs;
use pash::runtime::remote::{ExecuteRequest, RegionReply};
use pash::runtime::service::{
    read_response, write_request, CacheTier, Client, Request, Response, RunRequest,
};
use pash::workloads as wl;
use pash::{run, BackendOutput, RunEnv};

/// Mixed corpus: stateless, pure-with-aggregator, file-writing, and
/// multi-region scripts, at several widths and split policies.
fn corpus() -> Vec<(&'static str, u32, SplitPolicy)> {
    vec![
        ("cat in.txt | tr A-Z a-z | sort", 4, SplitPolicy::Sized),
        ("cat in.txt | grep the | wc -l", 2, SplitPolicy::RoundRobin),
        (
            "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 10",
            4,
            SplitPolicy::Sized,
        ),
        ("cat in.txt | tr A-Z a-z | grep the > out.txt", 2, SplitPolicy::Sized),
        ("cat in.txt | tr a-z A-Z | sort | uniq > out.txt\ncat in.txt | wc -lw", 4, SplitPolicy::RoundRobin),
        ("cat in.txt | sort", 1, SplitPolicy::Off),
    ]
}

fn corpus_input() -> Vec<u8> {
    wl::text_corpus(11, 96 * 1024)
}

/// What a run left behind, on either path.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    stdout: Vec<u8>,
    status: i32,
    out_file: Option<Vec<u8>>,
}

/// The ground truth: direct `pash::run` on a fresh filesystem.
fn direct(script: &str, width: u32, split: SplitPolicy) -> Observed {
    let fs = Arc::new(MemFs::new());
    fs.add("in.txt", corpus_input());
    let env = RunEnv {
        fs,
        ..Default::default()
    };
    let cfg = PashConfig {
        width: width.max(1) as usize,
        split,
        ..Default::default()
    };
    match run(script, &cfg, "threads", &env).expect("direct run") {
        BackendOutput::Execution(o) => Observed {
            stdout: o.stdout,
            status: o.status,
            out_file: env.fs.read("out.txt").ok(),
        },
        other => panic!("direct run produced {other:?}"),
    }
}

/// A `pashd` or `pash-worker` child process; killed on drop so failed
/// tests don't leak.
struct DaemonProc {
    child: Child,
    socket: PathBuf,
}

impl DaemonProc {
    fn client(&self) -> Client {
        Client::connect(&self.socket).expect("connect")
    }

    fn stop(mut self) {
        let _ = self.client().shutdown();
        let _ = self.child.wait();
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pash-service-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Spawns `pashd` and waits until its socket accepts connections.
fn spawn_daemon(dir: &Path, extra_args: &[&str]) -> DaemonProc {
    spawn_server(
        Path::new(env!("CARGO_BIN_EXE_pashd")),
        dir.join("pashd.sock"),
        extra_args,
    )
}

/// Spawns `bin --socket SOCKET EXTRA…` (`pashd` or `pash-worker`) and
/// waits until the socket accepts connections.
fn spawn_server(bin: &Path, socket: PathBuf, extra_args: &[&str]) -> DaemonProc {
    let mut cmd = Command::new(bin);
    cmd.arg("--socket")
        .arg(&socket)
        .args(extra_args)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    // Owned by its `DaemonProc` from the start: a server that never
    // comes up is killed and reaped when the panic below unwinds.
    let daemon = DaemonProc {
        child: cmd.spawn().expect("spawn the server"),
        socket,
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if Client::connect(&daemon.socket).is_ok() {
            return daemon;
        }
        assert!(Instant::now() < deadline, "{} never came up", bin.display());
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn seed_corpus(daemon: &DaemonProc) {
    daemon
        .client()
        .put_file("in.txt", corpus_input())
        .expect("seed in.txt");
}

fn request(script: &str, width: u32, split: SplitPolicy) -> RunRequest {
    RunRequest {
        script: script.to_string(),
        backend: "threads".to_string(),
        width,
        split,
        stdin: Vec::new(),
    }
}

fn observe_response(resp: pash::runtime::service::RunResponse) -> (Observed, CacheTier) {
    let out_file = resp
        .files
        .iter()
        .find(|(p, _)| p == "out.txt")
        .map(|(_, b)| b.clone());
    (
        Observed {
            stdout: resp.stdout,
            status: resp.status,
            out_file,
        },
        resp.tier,
    )
}

/// Pulls an integer counter out of the metrics JSON (hand-rolled, like
/// the rest of the repo's JSON handling).
fn metric(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} in {json}"));
    json[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter value")
}

#[test]
fn concurrent_clients_match_direct_runs() {
    let dir = scratch_dir("diff");
    let daemon = spawn_daemon(&dir, &["--max-concurrent", "3"]);
    seed_corpus(&daemon);
    let cases: Vec<_> = corpus()
        .into_iter()
        .map(|(script, width, split)| {
            let expect = direct(script, width, split);
            (script, width, split, expect)
        })
        .collect();
    let cases = Arc::new(cases);
    let daemon = Arc::new(daemon);
    let mut clients = Vec::new();
    for t in 0..4usize {
        let cases = cases.clone();
        let daemon = daemon.clone();
        clients.push(std::thread::spawn(move || {
            let mut client = daemon.client();
            for round in 0..2 {
                for i in 0..cases.len() {
                    // Each thread walks the corpus at a different
                    // phase so distinct scripts overlap in flight.
                    let (script, width, split, expect) = &cases[(i + t + round) % cases.len()];
                    let resp = client
                        .run(request(script, *width, *split))
                        .expect("daemon run");
                    let (got, _tier) = observe_response(resp);
                    assert_eq!(&got, expect, "thread {t} diverged on {script:?}");
                }
            }
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    let json = daemon.client().metrics().expect("metrics");
    let total = 4 * 2 * cases.len() as u64;
    assert_eq!(metric(&json, "run_requests"), total);
    assert!(
        metric(&json, "tier1_hits") > 0,
        "warm requests must hit the in-memory tier: {json}"
    );
    assert_eq!(metric(&json, "errors"), 0, "{json}");
    Arc::try_unwrap(daemon)
        .ok()
        .expect("all clients joined")
        .stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_serves_identical_results() {
    let dir = scratch_dir("warm");
    let cases: Vec<_> = corpus()
        .into_iter()
        .map(|(script, width, split)| {
            let expect = direct(script, width, split);
            (script, width, split, expect)
        })
        .collect();

    // Each process compiles a script once, then serves it from memory;
    // the second process starts over — nothing about plans is on disk —
    // and must produce the same bytes.
    for process in ["first", "restarted"] {
        let daemon = spawn_daemon(&dir, &[]);
        seed_corpus(&daemon);
        let mut client = daemon.client();
        for (script, width, split, expect) in &cases {
            for tier in [CacheTier::Cold, CacheTier::Memory] {
                let (got, got_tier) = observe_response(
                    client
                        .run(request(script, *width, *split))
                        .expect("daemon run"),
                );
                assert_eq!(&got, expect, "{process} process, {script:?}");
                assert_eq!(got_tier, tier, "{process} process, {script:?}");
            }
        }
        drop(client);
        daemon.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pashd_records_no_profile_and_writes_nothing_under_cache_dir() {
    let dir = scratch_dir("profiles");
    let cache = dir.join("cache");
    let daemon = spawn_daemon(&dir, &["--cache-dir", &cache.to_string_lossy()]);
    seed_corpus(&daemon);
    let mut client = daemon.client();
    for i in 0..200 {
        // Every other script has never been seen: a new region
        // fingerprint each time.
        let script = if i % 2 == 0 {
            "cat in.txt | tr A-Z a-z | grep the | wc -l".to_string()
        } else {
            format!("cat in.txt | grep the | grep -v zq{i}x | wc -l")
        };
        let resp = client
            .run(request(&script, 2, SplitPolicy::Sized))
            .expect("daemon run");
        assert_eq!(resp.status, 0, "{script:?}");
    }
    let json = client.metrics().expect("metrics");
    assert_eq!(metric(&json, "run_requests"), 200, "{json}");
    assert!(!json.contains("profile_regions"), "{json}");
    drop(client);
    daemon.stop();
    // `--cache-dir` is accepted and ignored: nothing was written, not
    // while serving and not after the drain.
    assert!(!cache.exists(), "pashd wrote under --cache-dir");
    let _ = std::fs::remove_dir_all(&dir);
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

#[test]
fn sigterm_drains_in_flight_requests_without_torn_responses() {
    let dir = scratch_dir("drain");
    let daemon = spawn_daemon(&dir, &["--max-concurrent", "1"]);
    // A big enough corpus that four serialized width-4 runs are still
    // in flight when the signal lands.
    let input = wl::text_corpus(11, 1 << 20);
    daemon
        .client()
        .put_file("in.txt", input.clone())
        .expect("seed in.txt");
    let script =
        "cat in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn | head -n 10";
    let expect = {
        let fs = Arc::new(MemFs::new());
        fs.add("in.txt", input);
        let env = RunEnv {
            fs,
            ..Default::default()
        };
        let cfg = PashConfig {
            width: 4,
            split: SplitPolicy::RoundRobin,
            ..Default::default()
        };
        match run(script, &cfg, "threads", &env).expect("direct run") {
            BackendOutput::Execution(o) => o.stdout,
            other => panic!("direct run produced {other:?}"),
        }
    };

    // Four clients send one request each; with admission width 1 they
    // queue behind each other, so several are mid-service when the
    // daemon is told to die.
    let mut clients = Vec::new();
    for _ in 0..4 {
        let mut client = daemon.client();
        let req = request(script, 4, SplitPolicy::RoundRobin);
        clients.push(std::thread::spawn(move || client.run(req)));
    }
    std::thread::sleep(Duration::from_millis(150));
    let pid = daemon.child.id() as i32;
    assert_eq!(unsafe { kill(pid, 15) }, 0, "SIGTERM delivered");

    // The drain contract: every request that was already accepted gets
    // its complete response — correct bytes, never a torn frame.
    for c in clients {
        let resp = c
            .join()
            .expect("client thread")
            .expect("in-flight request completes across SIGTERM");
        assert_eq!(resp.stdout, expect, "drained response diverged");
        assert_eq!(resp.status, 0);
    }

    // And the daemon exited the graceful path: serve() returned Ok, so
    // the process status is success, not a signal death.
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("daemon exit");
    assert!(status.success(), "graceful SIGTERM exit, got {status:?}");
    assert!(
        Client::connect(&daemon.socket).is_err(),
        "socket is gone after shutdown"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_report_which_schedule_each_region_ran() {
    let dir = scratch_dir("schedule");
    let daemon = spawn_daemon(&dir, &[]);
    let mut client = daemon.client();
    client
        .put_file("small.txt", wl::text_corpus(5, 8 * 1024))
        .expect("small.txt");
    client
        .put_file("big.txt", wl::text_corpus(6, 1 << 20))
        .expect("big.txt");
    let schedules = |client: &mut Client| {
        let json = client.metrics().expect("metrics");
        (
            metric(&json, "inline_regions"),
            metric(&json, "threaded_regions"),
        )
    };
    assert_eq!(schedules(&mut client), (0, 0));
    // Six small requests, two of them of two regions: eight regions
    // whose whole input fits one pipe buffer run to completion on the
    // connection's thread, and nothing gets a thread per node.
    let one = "cat small.txt | tr A-Z a-z | sort | uniq -c";
    let two = "cat small.txt | grep the > out.txt\ncat small.txt | wc -l";
    for (script, width) in [(one, 1), (one, 2), (one, 4), (two, 2), (two, 4), (one, 2)] {
        let resp = client
            .run(request(script, width, SplitPolicy::Sized))
            .expect("small run");
        assert_eq!(resp.status, 0);
    }
    assert_eq!(schedules(&mut client), (8, 0));
    // One request over the 1 MiB file does the opposite.
    let resp = client
        .run(request(
            "cat big.txt | tr A-Z a-z | sort | uniq -c",
            2,
            SplitPolicy::Sized,
        ))
        .expect("big run");
    assert_eq!(resp.status, 0);
    assert_eq!(schedules(&mut client), (8, 1));
    drop(client);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_report_which_rewrites_shaped_the_plan() {
    let dir = scratch_dir("rewrites");
    let daemon = spawn_daemon(&dir, &[]);
    let mut client = daemon.client();
    client
        .put_file("in.txt", wl::text_corpus(7, 8 * 1024))
        .expect("in.txt");
    let shaped = |client: &mut Client| {
        let json = client.metrics().expect("metrics");
        (
            metric(&json, "plan_commuted"),
            metric(&json, "plan_splits_raw_rr"),
        )
    };
    assert_eq!(shaped(&mut client), (0, 0));
    let mut run = |script: &str, width| {
        let resp = client
            .run(request(script, width, SplitPolicy::Sized))
            .expect("run");
        assert_eq!(resp.status, 0);
        shaped(&mut client)
    };
    // The fold moves below the sort's merge: one rewrite, no split.
    let folded = "cat in.txt | sort | uniq -c";
    assert_eq!(run(folded, 2), (1, 0));
    // Served from the plan cache: nothing was compiled.
    assert_eq!(run(folded, 2), (1, 0));
    // A stage behind the merge takes raw round-robin blocks.
    assert_eq!(run("cat in.txt | sort | uniq -c | sort -n", 2), (2, 1));
    // Width 1 has no merge to move anything below.
    assert_eq!(run(folded, 1), (2, 1));
    drop(client);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_injected_daemon_stays_byte_identical() {
    let dir = scratch_dir("fault");
    // A persistent kill-worker fault: every attempt dies, so the
    // supervisor must exhaust retries and take the sequential
    // fallback — on a freshly compiled plan and on a cached one.
    let fault_args = ["--retries", "1", "--fault", "kill-worker:5:4294967295"];
    let (script, width, split) = (
        "cat in.txt | tr A-Z a-z | grep the > out.txt",
        4,
        SplitPolicy::RoundRobin,
    );
    let expect = direct(script, width, split);

    let daemon = spawn_daemon(&dir, &fault_args);
    seed_corpus(&daemon);
    let mut client = daemon.client();
    for round in 0..2 {
        let (got, _tier) = observe_response(
            client
                .run(request(script, width, split))
                .expect("faulted run"),
        );
        assert_eq!(
            got, expect,
            "fault-injected daemon diverged (round {round})"
        );
    }
    // Not bytes alone: the daemon reports that the faults were
    // delivered and which recovery ran.
    let json = client.metrics().expect("metrics");
    assert!(metric(&json, "injected") >= 1, "{json}");
    assert!(
        metric(&json, "retries") + metric(&json, "fallbacks") >= 1,
        "{json}"
    );
    drop(client);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One region of `script` compiled at `width`, shipped with `in.txt`
/// and the armed-fault spec `fault`.
fn shipped(script: &str, width: usize, input: &[u8], fault: Option<&str>) -> Request {
    let plan = pash::core::compile::compile(script, &PashConfig::round_robin(width))
        .expect("compile")
        .plan;
    let region = plan.regions().next().expect("one region").clone();
    Request::Execute(ExecuteRequest {
        region,
        files: vec![("in.txt".to_string(), input.to_vec())],
        stdin: Vec::new(),
        fault: fault.map(String::from),
    })
}

fn call(stream: &mut std::os::unix::net::UnixStream, req: &Request) -> Response {
    write_request(stream, req).expect("send");
    read_response(stream).expect("a whole reply")
}

#[test]
fn pashd_refuses_execute_and_keeps_serving() {
    let dir = scratch_dir("verbs");
    let daemon = spawn_daemon(&dir, &[]);
    let mut stream = std::os::unix::net::UnixStream::connect(&daemon.socket).expect("connect");
    match call(
        &mut stream,
        &shipped("cat in.txt | sort", 2, b"b\na\n", None),
    ) {
        Response::Error(msg) => assert!(msg.contains("pash-worker"), "{msg}"),
        other => panic!("pashd answered Execute with {other:?}"),
    }
    // The same connection still answers, and counted the refusal.
    match call(&mut stream, &Request::Metrics) {
        Response::Text(json) => assert_eq!(metric(&json, "errors"), 1, "{json}"),
        other => panic!("Metrics answered with {other:?}"),
    }
    drop(stream);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pashd_refuses_width_zero_and_keeps_serving() {
    let dir = scratch_dir("width0");
    let daemon = spawn_daemon(&dir, &[]);
    seed_corpus(&daemon);
    let script = "cat in.txt | tr A-Z a-z | grep the > out.txt";
    let mut stream = std::os::unix::net::UnixStream::connect(&daemon.socket).expect("connect");
    match call(
        &mut stream,
        &Request::Run(request(script, 0, SplitPolicy::Sized)),
    ) {
        Response::Error(msg) => assert_eq!(msg, "width must be at least 1"),
        other => panic!("pashd answered a width-0 Run with {other:?}"),
    }
    match call(&mut stream, &Request::Metrics) {
        Response::Text(json) => assert_eq!(metric(&json, "errors"), 1, "{json}"),
        other => panic!("Metrics answered with {other:?}"),
    }
    // The next request on the same connection runs as if nothing
    // happened.
    match call(
        &mut stream,
        &Request::Run(request(script, 2, SplitPolicy::Sized)),
    ) {
        Response::Run(resp) => {
            let (got, _) = observe_response(resp);
            assert_eq!(got, direct(script, 2, SplitPolicy::Sized));
        }
        other => panic!("pashd answered a width-2 Run with {other:?}"),
    }
    match call(&mut stream, &Request::Metrics) {
        Response::Text(json) => assert_eq!(metric(&json, "errors"), 1, "{json}"),
        other => panic!("Metrics answered with {other:?}"),
    }
    drop(stream);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stdin_fed_requests_back_to_back_on_one_connection_match_direct_runs() {
    let script = "tr A-Z a-z | cut -d ' ' -f 1-4 | tr -d ',.' | tr -s ' '";
    let stdin = wl::text_corpus(13, 4 << 20);
    let expect = {
        let env = RunEnv {
            stdin: stdin.clone(),
            ..Default::default()
        };
        match run(script, &PashConfig::round_robin(2), "threads", &env).expect("direct run") {
            BackendOutput::Execution(o) => (o.stdout, o.status),
            other => panic!("direct run produced {other:?}"),
        }
    };
    assert!(!expect.0.is_empty());
    let dir = scratch_dir("stdin");
    let daemon = spawn_daemon(&dir, &[]);
    let mut client = daemon.client();
    for round in 0..2 {
        let resp = client
            .run(RunRequest {
                stdin: stdin.clone(),
                ..request(script, 2, SplitPolicy::RoundRobin)
            })
            .expect("daemon run");
        assert_eq!((resp.stdout, resp.status), expect, "round {round}");
    }
    drop(client);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pashd_refuses_an_over_cap_reply_and_keeps_serving() {
    let dir = scratch_dir("over-cap");
    let daemon = spawn_daemon(&dir, &[]);
    seed_corpus(&daemon);
    // Four copies of a 17 MiB file: a stdout over the 64 MiB cap.
    daemon
        .client()
        .put_file("big.txt", wl::text_corpus(14, 17 << 20))
        .expect("seed big.txt");
    let mut stream = std::os::unix::net::UnixStream::connect(&daemon.socket).expect("connect");
    let big = "cat big.txt big.txt big.txt big.txt";
    match call(
        &mut stream,
        &Request::Run(request(big, 1, SplitPolicy::Off)),
    ) {
        Response::Error(msg) => assert!(msg.contains("exceeds"), "{msg}"),
        other => panic!("an over-cap reply arrived as {other:?}"),
    }
    match call(&mut stream, &Request::Metrics) {
        Response::Text(json) => assert_eq!(metric(&json, "errors"), 1, "{json}"),
        other => panic!("Metrics answered with {other:?}"),
    }
    // The next request on the same connection is served.
    let script = "cat in.txt | tr A-Z a-z | grep the > out.txt";
    match call(
        &mut stream,
        &Request::Run(request(script, 2, SplitPolicy::Sized)),
    ) {
        Response::Run(resp) => {
            let (got, _) = observe_response(resp);
            assert_eq!(got, direct(script, 2, SplitPolicy::Sized));
        }
        other => panic!("pashd answered a width-2 Run with {other:?}"),
    }
    drop(stream);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_sigterm_drains_in_flight_executes_without_torn_replies() {
    let Some((pashc, _)) = pash_bench::fixtures::runtime_binaries() else {
        eprintln!("skipping: the runtime binaries could not be built");
        return;
    };
    let dir = scratch_dir("worker-drain");
    let worker = spawn_server(
        &pashc.with_file_name("pash-worker"),
        dir.join("worker.sock"),
        &[],
    );
    let input = wl::text_corpus(12, 256 * 1024);
    let script = "cat in.txt | tr A-Z a-z | sort | uniq -c";
    let expect = {
        let fs = Arc::new(MemFs::new());
        fs.add("in.txt", input.clone());
        let env = RunEnv {
            fs,
            ..Default::default()
        };
        match run(script, &PashConfig::round_robin(2), "threads", &env).expect("direct run") {
            BackendOutput::Execution(o) => o.stdout,
            other => panic!("direct run produced {other:?}"),
        }
    };

    // Four attempts, each asleep for half a second before it runs (an
    // armed slow worker): all four are in flight when the signal lands.
    let mut clients = Vec::new();
    for _ in 0..4 {
        let mut stream = std::os::unix::net::UnixStream::connect(&worker.socket).expect("connect");
        let req = shipped(script, 2, &input, Some("slow-worker:0:-:1:20:500"));
        clients.push(std::thread::spawn(move || {
            write_request(&mut stream, &req).expect("send");
            read_response(&mut stream)
        }));
    }
    // Every request has been read once Metrics counts it (the probe
    // counts itself too).
    let deadline = Instant::now() + Duration::from_secs(10);
    for probes in 1.. {
        let json = worker.client().metrics().expect("metrics");
        if metric(&json, "requests_served") >= 4 + probes {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the attempts never arrived: {json}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let pid = worker.child.id() as i32;
    assert_eq!(unsafe { kill(pid, 15) }, 0, "SIGTERM delivered");

    // Each attempt that was in flight sends its whole reply.
    for c in clients {
        match c.join().expect("client thread").expect("a whole reply") {
            Response::Region(RegionReply::Done { output, .. }) => {
                assert_eq!(output.stdout, expect, "drained reply diverged");
                assert_eq!(output.status, 0);
            }
            other => panic!("expected a finished region, got {other:?}"),
        }
    }
    let mut worker = worker;
    let status = worker.child.wait().expect("worker exit");
    assert!(status.success(), "graceful SIGTERM exit, got {status:?}");
    assert!(!worker.socket.exists(), "socket is gone after the drain");
    drop(worker);
    let _ = std::fs::remove_dir_all(&dir);
}
