//! The program driver: everything a run of an [`ExecutionPlan`]
//! *means*, and nothing about how a region executes.
//!
//! The lowered plan is the one semantic object; backends differ only in
//! how they realise a region's edges. So the step semantics live here,
//! once — steps run one at a time in plan order, guards and the skip
//! they impose on the *next* step, the hand-off of the program's stdin
//! to the first region that reads it, the alignment a width-1 fallback
//! plan must satisfy, and one [`supervise_ladder`] call per region —
//! and a backend is a [`RegionRunner`]: one attempt at one region.
//!
//! No two steps overlap. The compiled script of the paper waits for
//! each region before its next step, and a plan cannot prove two
//! regions independent: its edges name only the files a region opens
//! itself, not one a command learns at run time (`echo a.txt | xargs
//! cat` reads the `a.txt` an earlier step writes).
//!
//! `threads` ([`crate::exec`]), `processes` ([`crate::proc`]) and
//! `remote` ([`crate::remote`]) are the three runners.
//!
//! Bytes cross the run's boundary once. The program's stdin is the
//! caller's slice, borrowed for the length of the call: every attempt
//! of the region that reads it — each retry, the clean-local rung, the
//! width-1 fallback — reads the same slice from byte 0, and no run
//! makes a copy of it first. A region's stdout is handed to the
//! program's, not appended to it, unless an earlier step already
//! wrote.

use std::io;

use pash_core::plan::{ExecutionPlan, PlanStep, RegionPlan};

use crate::exec::{ProgramOutput, RegionOutput};
use crate::fault::{ArmedFault, ExecError};
use crate::supervise::{supervise_ladder, SupervisorSettings};

/// How one backend executes a region. The driver and the supervisor
/// decide *whether* and *how often*; a runner only ever makes one
/// faithful (or faithfully faulted) attempt.
pub trait RegionRunner: Sync {
    /// One attempt at `r`, fed `feed` from byte 0 on its primary
    /// boundary stdin, with `fault` injected if armed. `attempt_no`
    /// counts from zero within the region's ladder (the remote runner
    /// places by it).
    /// `supervised` carries the run's settings for a supervised
    /// attempt — the runner enforces `region_deadline` and notes its
    /// own deadline kills — and is `None` for a clean reference run
    /// (fallback rungs: no injection, no deadline).
    fn attempt(
        &self,
        r: &RegionPlan,
        feed: &[u8],
        fault: Option<&ArmedFault>,
        attempt_no: u32,
        supervised: Option<&SupervisorSettings>,
    ) -> Result<RegionOutput, ExecError>;

    /// Whether an attempt crosses a coordinator↔worker connection —
    /// the site of the remote fault kinds ([`crate::fault::FaultPlan::arm`]).
    fn has_connection(&self) -> bool {
        false
    }

    /// The runner a region degrades to, clean, once its retries here
    /// are spent — and on which its width-1 fallback then runs. `None`
    /// when this runner is already the local one.
    fn clean_local(&self) -> Option<&dyn RegionRunner> {
        None
    }

    /// Runs a `Shell` step that is not a data-path no-op, its `$?`
    /// the `status` of the step before it; the output is the step's
    /// stdout and exit status.
    fn shell_step(&self, text: &str, _status: i32) -> io::Result<ProgramOutput> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("cannot execute shell step on this backend: `{text}`"),
        ))
    }
}

/// Two plans compiled from the same source at different widths have
/// the same step skeleton (lowering maps source steps 1:1 regardless
/// of width); anything else means the fallback plan is not a
/// re-execution of the same program and must not be used.
fn plans_align(a: &ExecutionPlan, b: &ExecutionPlan) -> bool {
    a.steps.len() == b.steps.len()
        && a.steps.iter().zip(&b.steps).all(|(x, y)| match (x, y) {
            (PlanStep::Region(_), PlanStep::Region(_)) => true,
            (PlanStep::Guard(g), PlanStep::Guard(h)) => g == h,
            (PlanStep::Shell { text: t, .. }, PlanStep::Shell { text: u, .. }) => t == u,
            _ => false,
        })
}

/// One program run in progress.
struct Run<'a> {
    plan: &'a ExecutionPlan,
    fallback: Option<&'a ExecutionPlan>,
    runner: &'a dyn RegionRunner,
    supervisor: &'a SupervisorSettings,
    /// The program's stdin until a region takes it; every other
    /// region reads nothing.
    stdin: Option<&'a [u8]>,
    stdout: Vec<u8>,
    status: i32,
    skip_next: bool,
}

impl<'a> Run<'a> {
    fn fallback_region(&self, i: usize) -> Option<&'a RegionPlan> {
        match self.fallback.map(|f| &f.steps[i]) {
            Some(PlanStep::Region(r)) => Some(r),
            _ => None,
        }
    }

    /// Only a region that consumes stdin takes the bytes; the emitted
    /// script keeps real stdin on a saved fd, so a later reader still
    /// sees it.
    fn take_feed(&mut self, r: &RegionPlan) -> &'a [u8] {
        let taken = if r.reads_stdin() {
            self.stdin.take()
        } else {
            None
        };
        taken.unwrap_or_default()
    }

    /// Executes step `i`.
    fn step(&mut self, i: usize) -> io::Result<()> {
        match &self.plan.steps[i] {
            PlanStep::Guard(cond) => self.skip_next = !cond.admits(self.status),
            // A guard's verdict covers the one step after it.
            _ if std::mem::take(&mut self.skip_next) => {}
            PlanStep::Region(r) => {
                let feed = self.take_feed(r);
                let fb = self.fallback_region(i);
                let out = supervise_ladder(self.runner, r, fb, feed, self.supervisor)?;
                self.status = out.status;
                append(&mut self.stdout, out.stdout);
            }
            // Folded into the compile-time environment already.
            PlanStep::Shell {
                data_noop: true, ..
            } => self.status = 0,
            PlanStep::Shell { text, .. } => {
                let out = self.runner.shell_step(text, self.status)?;
                append(&mut self.stdout, out.stdout);
                self.status = out.status;
            }
        }
        Ok(())
    }
}

/// Appends `bytes` to `out` — by moving them when `out` is still
/// empty, so the first output to arrive is never copied.
pub(crate) fn append(out: &mut Vec<u8>, bytes: Vec<u8>) {
    if out.is_empty() {
        *out = bytes;
    } else {
        out.extend_from_slice(&bytes);
    }
}

/// Runs `plan` on `runner`, one step at a time in plan order — each
/// step starts after the one before it has finished, as in the
/// sequential script — `stdin` feeding the first region that reads it.
///
/// `fallback` is the same program compiled at width 1. It is used — a
/// region whose retries are spent re-executes through its aligned
/// width-1 region, whose output is by construction the reference
/// output — only if it aligns with `plan` step for step; a plan that
/// does not is not a re-execution of this program and is ignored, so a
/// fault can degrade performance but never correctness.
pub fn drive(
    plan: &ExecutionPlan,
    fallback: Option<&ExecutionPlan>,
    runner: &dyn RegionRunner,
    supervisor: &SupervisorSettings,
    stdin: &[u8],
) -> io::Result<ProgramOutput> {
    let mut run = Run {
        plan,
        fallback: fallback.filter(|f| plans_align(plan, f)),
        runner,
        supervisor,
        stdin: Some(stdin),
        stdout: Vec::new(),
        status: 0,
        skip_next: false,
    };
    for i in 0..plan.steps.len() {
        run.step(i)?;
    }
    Ok(ProgramOutput {
        stdout: run.stdout,
        status: run.status,
    })
}

/// The substitution [`RegionRunner`] exists for: a runner that runs
/// nothing, records every call, and answers from a closure.
#[cfg(test)]
pub(crate) mod fake {
    use super::*;
    use std::sync::Mutex;

    /// One recorded [`RegionRunner::attempt`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Call {
        /// Fingerprint of the region attempted.
        pub region: u64,
        pub feed: Vec<u8>,
        pub attempt_no: u32,
        pub supervised: bool,
        pub armed: bool,
    }

    type Behaviour = Box<dyn Fn(&Call) -> Result<RegionOutput, ExecError> + Send + Sync>;

    pub struct FakeRunner {
        behaviour: Behaviour,
        calls: Mutex<Vec<Call>>,
        local: Option<Box<FakeRunner>>,
    }

    impl FakeRunner {
        pub fn new(
            behaviour: impl Fn(&Call) -> Result<RegionOutput, ExecError> + Send + Sync + 'static,
        ) -> FakeRunner {
            FakeRunner {
                behaviour: Box::new(behaviour),
                calls: Mutex::new(Vec::new()),
                local: None,
            }
        }

        /// Gives this runner a clean-local rung.
        pub fn with_local(mut self, local: FakeRunner) -> FakeRunner {
            self.local = Some(Box::new(local));
            self
        }

        pub fn local(&self) -> &FakeRunner {
            self.local.as_deref().expect("fake has a local rung")
        }

        /// Every attempt so far, in the order they started.
        pub fn calls(&self) -> Vec<Call> {
            self.calls.lock().expect("calls lock").clone()
        }
    }

    impl RegionRunner for FakeRunner {
        fn attempt(
            &self,
            r: &RegionPlan,
            feed: &[u8],
            fault: Option<&ArmedFault>,
            attempt_no: u32,
            supervised: Option<&SupervisorSettings>,
        ) -> Result<RegionOutput, ExecError> {
            let call = Call {
                region: r.fingerprint(),
                feed: feed.to_vec(),
                attempt_no,
                supervised: supervised.is_some(),
                armed: fault.is_some(),
            };
            self.calls.lock().expect("calls lock").push(call.clone());
            (self.behaviour)(&call)
        }

        fn clean_local(&self) -> Option<&dyn RegionRunner> {
            self.local.as_deref().map(|l| l as &dyn RegionRunner)
        }
    }

    pub fn ok(status: i32, stdout: &[u8]) -> Result<RegionOutput, ExecError> {
        Ok(RegionOutput {
            stdout: stdout.to_vec(),
            statuses: Vec::new(),
            status,
        })
    }

    pub fn transient() -> ExecError {
        ExecError::transient("node", io::Error::new(io::ErrorKind::Interrupted, "boom"))
    }

    pub fn fatal() -> ExecError {
        ExecError::fatal(
            "node",
            io::Error::new(io::ErrorKind::NotFound, "no such file"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::fake::{fatal, ok, transient, FakeRunner};
    use super::*;
    use pash_core::compile::{compile, PashConfig};
    use std::time::Duration;

    /// Round-robin split, so a stdin pipeline differs between widths.
    fn plan(src: &str, width: usize) -> ExecutionPlan {
        compile(src, &PashConfig::round_robin(width))
            .expect("compile")
            .plan
    }

    /// Region fingerprints in step order.
    fn regions(p: &ExecutionPlan) -> Vec<u64> {
        p.regions().map(RegionPlan::fingerprint).collect()
    }

    fn quick() -> SupervisorSettings {
        SupervisorSettings {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            ..Default::default()
        }
    }

    #[test]
    fn only_an_aligned_fallback_is_ever_attempted() {
        // (main, fallback, aligned): the fallback of the first three is
        // some other program's width-1 plan.
        let cases = [
            (
                "grep a in.txt | sort > o.txt && tr a-z A-Z | sort",
                "grep a in.txt | sort > o.txt || tr a-z A-Z | sort",
                false,
            ),
            (
                "f=in.txt\ntr a-z A-Z | sort",
                "g=in.txt\ntr a-z A-Z | sort",
                false,
            ),
            (
                "tr a-z A-Z | sort",
                "tr a-z A-Z | sort\ncat in.txt | sort",
                false,
            ),
            ("tr a-z A-Z | sort", "tr a-z A-Z | sort", true),
        ];
        for (main_src, fb_src, aligned) in cases {
            let (main, fb) = (plan(main_src, 2), plan(fb_src, 1));
            // The stdin reader fails at width 2; at width 1 it would
            // succeed.
            let reader = |p: &ExecutionPlan| {
                let r = p.regions().find(|r| r.reads_stdin()).expect("a reader");
                r.fingerprint()
            };
            let (failing, reference) = (reader(&main), reader(&fb));
            assert_ne!(failing, reference, "the two widths must be tellable apart");
            let runner = FakeRunner::new(move |c| match c.region {
                r if r == failing => Err(transient()),
                r if r == reference => ok(0, b"reference\n"),
                _ => ok(0, b""),
            });
            let res = drive(&main, Some(&fb), &runner, &quick(), b"stdin bytes\n");
            let attempts: Vec<_> = runner
                .calls()
                .into_iter()
                .filter(|c| c.region == failing)
                .collect();
            assert_eq!(attempts.len(), 3, "{main_src}: 1 + max_retries attempts");
            for (i, c) in attempts.iter().enumerate() {
                assert_eq!(c.attempt_no, i as u32);
                assert!(c.supervised);
                assert_eq!(c.feed, b"stdin bytes\n", "attempt {i} sees the whole feed");
            }
            let on_fallback: Vec<_> = runner
                .calls()
                .into_iter()
                .filter(|c| c.region == reference)
                .collect();
            if aligned {
                let out = res.expect("the aligned fallback finishes the run");
                assert_eq!(out.stdout, b"reference\n");
                assert_eq!(on_fallback.len(), 1);
                assert!(!on_fallback[0].supervised && !on_fallback[0].armed);
                assert_eq!(on_fallback[0].feed, b"stdin bytes\n", "the fallback too");
            } else {
                let err = res.expect_err("no fallback to use");
                assert!(err.to_string().contains("boom"), "{main_src}: {err}");
                assert!(on_fallback.is_empty(), "{main_src}: {on_fallback:?}");
            }
        }
    }

    #[test]
    fn a_guard_skips_the_next_step_only() {
        let p = plan("grep z in.txt > m.txt && cat in.txt\nsort in.txt", 1);
        let fps = regions(&p);
        assert_eq!(fps.len(), 3);
        assert_ne!(fps[1], fps[2]);
        let miss = fps[0];
        let runner = FakeRunner::new(move |c| ok((c.region == miss) as i32, b"ran\n"));
        let out = drive(&p, None, &runner, &quick(), &[]).expect("run");
        let ran: Vec<u64> = runner.calls().iter().map(|c| c.region).collect();
        assert_eq!(ran, [fps[0], fps[2]], "the guarded region alone is skipped");
        assert_eq!(out.stdout, b"ran\nran\n");
        assert_eq!(out.status, 0, "status of the last step that ran");
    }

    #[test]
    fn stdin_goes_to_the_first_reader_and_no_later_one() {
        let p = plan("cat in.txt > a.txt\ntr a-z A-Z\ntr A-Z a-z", 1);
        let runner = FakeRunner::new(|_| ok(0, b""));
        drive(&p, None, &runner, &quick(), b"the feed\n").expect("run");
        let feeds: Vec<Vec<u8>> = runner.calls().into_iter().map(|c| c.feed).collect();
        assert_eq!(feeds, [&b""[..], b"the feed\n", b""]);
    }

    #[test]
    fn a_fatal_error_stops_the_program() {
        let p = plan("cat in.txt | sort > a.txt\ncat a.txt", 2);
        let fb = plan("cat in.txt | sort > a.txt\ncat a.txt", 1);
        let runner = FakeRunner::new(|_| Err(fatal()));
        let err = drive(&p, Some(&fb), &runner, &quick(), &[]).expect_err("fatal");
        assert!(err.to_string().contains("no such file"), "{err}");
        assert_eq!(
            runner.calls().len(),
            1,
            "no retry, no fallback, no next step"
        );
    }
}
