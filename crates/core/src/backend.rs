//! The shell back-end (§5.2): [`ExecutionPlan`] → POSIX shell script.
//!
//! Each region becomes a block in the shape of the paper's Fig. 3:
//! `mkfifo` for the internal edges, one background job per node, a
//! `wait` restricted to the region's output producers, and a cleanup
//! routine that delivers PIPE signals to any remaining upstream
//! processes (the dangling-FIFO fix).
//!
//! A node's job is its [`crate::plan::SpawnSpec`] command line, word
//! for word as the `processes` backend spawns it, each edge named by
//! its FIFO or file:
//!
//! ```text
//! "$PASHC" --stdin-seg in.txt 1 2 --stdout "$PASH_TMP"/r0_p5 grep foo &
//! ```
//!
//! Its redirections are part of that command line, so the command
//! opens its own FIFOs and files, as it does on `processes`; `sh`
//! opens none of them. The only redirections `sh` performs are the
//! region boundary's: `<&9` (the script's saved stdin) on the primary
//! stdin edge, `< /dev/null` on another, and an inherited stdout.
//!
//! The emitted script is hermetic: coreutils commands run through
//! `$PASHC` (the multi-call binary) and runtime primitives through
//! `$PASH_RT`, both overridable via the environment.
//!
//! [`emit_program`] shares the lowered IR with the threaded executor
//! and the cost model instead of walking the DFG itself.

use crate::plan::{
    EndpointKind, ExecutionPlan, GuardCond, PlanEdgeId, PlanStep, RegionPlan, SpawnBin, SpawnWord,
};

/// Emission options. There are none: every command runs through
/// `"$PASHC"` and every runtime primitive through `"$PASH_RT"`. The
/// type stays only because the benchmark harness names it; ROADMAP
/// item 5 deletes it.
#[derive(Debug, Clone, Default)]
pub struct EmitConfig;

/// Emits the complete parallel script for a lowered program.
pub fn emit_program(plan: &ExecutionPlan, _cfg: &EmitConfig) -> String {
    let mut out = String::new();
    out.push_str("#!/bin/sh\n");
    out.push_str("# Generated by pash-rs.\n");
    out.push_str("PASHC=\"${PASHC:-pashc}\"\n");
    out.push_str("PASH_RT=\"${PASH_RT:-pash-rt}\"\n");
    out.push_str("PASH_TMP=\"${PASH_TMP:-$(mktemp -d)}\"\n");
    // Background jobs read /dev/null by default (POSIX async lists),
    // and `/dev/stdin` inside one resolves to that same /dev/null —
    // so when a region consumes the script's stdin, the script saves
    // fd 0 up front and the primary consumer dups it back.
    if plan.regions().any(RegionPlan::reads_stdin) {
        out.push_str("exec 9<&0\n");
    }
    out.push_str("pash_status=0\n");
    let mut region_idx = 0;
    let mut i = 0;
    while i < plan.steps.len() {
        match &plan.steps[i] {
            PlanStep::Guard(cond) => {
                // Wrap the following step in a status check.
                let test = match cond {
                    GuardCond::IfSuccess => "[ \"$pash_status\" -eq 0 ]",
                    GuardCond::IfFailure => "[ \"$pash_status\" -ne 0 ]",
                };
                out.push_str(&format!("if {test}; then\n"));
                if let Some(next) = plan.steps.get(i + 1) {
                    emit_step(&mut out, next, &mut region_idx);
                }
                out.push_str("fi\n");
                i += 2;
            }
            step => {
                emit_step(&mut out, step, &mut region_idx);
                i += 1;
            }
        }
    }
    // The script's exit status is the program's status (cleanup lines
    // must not mask a failing final region).
    out.push_str("exit \"$pash_status\"\n");
    out
}

fn emit_step(out: &mut String, step: &PlanStep, region_idx: &mut usize) {
    match step {
        PlanStep::Shell { text, .. } => {
            // Its `$?` is the step before's status, as in the source
            // script, not that of a region's cleanup.
            out.push_str("(exit \"$pash_status\")\n");
            out.push_str(text);
            out.push_str("\npash_status=$?\n");
        }
        PlanStep::Region(r) => {
            out.push_str(&emit_region(r, *region_idx, &EmitConfig));
            *region_idx += 1;
        }
        PlanStep::Guard(_) => {
            // Handled by the caller; a trailing guard is a no-op.
        }
    }
}

/// Emits one region block (Fig. 3 shape).
pub fn emit_region(r: &RegionPlan, region: usize, _cfg: &EmitConfig) -> String {
    let mut out = String::new();
    out.push_str(&format!("# --- pash region {region} ---\n"));
    // FIFOs for every internal pipe edge.
    let fifos: Vec<PlanEdgeId> = r.internal_pipes().collect();
    if !fifos.is_empty() {
        out.push_str("mkfifo");
        for e in &fifos {
            out.push_str(&format!(" {}", pipe_name(region, *e)));
        }
        out.push('\n');
    }
    // Status sources: when parallelization replaced the output
    // producer with a synthetic combiner, the region's status is the
    // fold of the command copies' statuses, not the combiner's
    // (`crate::plan::fold_statuses`). Their pids are captured
    // separately so they can be waited on individually.
    let sources = r.status_sources();
    let fold_needed = !sources.is_empty()
        && (sources.len() != 1 || r.output_producers().last() != Some(sources[0]));
    out.push_str("pash_pids=\"\"\npash_out_pids=\"\"\n");
    if fold_needed {
        out.push_str("pash_spids=\"\"\n");
    }
    for (idx, node) in r.nodes.iter().enumerate() {
        let spec = r.spawn_spec(idx);
        // An edge the command line names, by its transport. Lowering
        // names no other kind.
        let name_of = |e: PlanEdgeId| -> String {
            match &r.edges[e].kind {
                EndpointKind::Pipe => pipe_name(region, e),
                EndpointKind::InputFile(f) | EndpointKind::OutputFile(f) => shell_quote(f),
                _ => "/dev/null".to_string(),
            }
        };
        let mut line = String::from(match spec.bin {
            SpawnBin::Coreutils => "\"$PASHC\"",
            SpawnBin::Runtime => "\"$PASH_RT\"",
        });
        // The spawn spec's command line, redirections and all: the
        // command opens its own FIFOs and files.
        for w in &spec.argv {
            line.push(' ');
            match w {
                SpawnWord::Lit(s) => line.push_str(&shell_quote(s)),
                SpawnWord::In(k) => line.push_str(&name_of(node.inputs[*k])),
                SpawnWord::Out(j) => line.push_str(&name_of(node.outputs[*j])),
            }
        }
        // The region's boundary: background jobs read /dev/null by
        // default (POSIX), so the primary stdin edge dups the script
        // stdin saved as fd 9 by the header; the region's stdout is
        // inherited.
        match spec.reads_stdin {
            Some(true) => line.push_str(" <&9"),
            Some(false) => line.push_str(" < /dev/null"),
            None => {}
        }
        line.push_str(" &\n");
        out.push_str(&line);
        out.push_str("pash_pids=\"$pash_pids $!\"\n");
        if node.output_producer {
            out.push_str("pash_out_pids=\"$pash_out_pids $!\"\n");
        }
        if fold_needed && sources.contains(&idx) {
            out.push_str("pash_spids=\"$pash_spids $!\"\n");
        }
    }
    // Wait on output producers only; then SIGPIPE any zombie
    // producers upstream (§5.2, "Dangling FIFOs and Zombie
    // Producers").
    out.push_str("wait $pash_out_pids\npash_status=$?\n");
    if fold_needed {
        // Producers exiting implies the sources already exited (EOF
        // flows downstream), so these waits return immediately. Fold:
        // any status ≥ 2 → the largest such; else the minimum.
        out.push_str("pash_min=\"\"\npash_err=\"\"\n");
        out.push_str("for pash_p in $pash_spids; do\n");
        out.push_str("  wait \"$pash_p\"\n  pash_s=$?\n");
        out.push_str("  if [ \"$pash_s\" -ge 2 ]; then\n");
        out.push_str(
            "    if [ -z \"$pash_err\" ] || [ \"$pash_s\" -gt \"$pash_err\" ]; then pash_err=$pash_s; fi\n",
        );
        out.push_str("  fi\n");
        out.push_str(
            "  if [ -z \"$pash_min\" ] || [ \"$pash_s\" -lt \"$pash_min\" ]; then pash_min=$pash_s; fi\n",
        );
        out.push_str("done\n");
        out.push_str("if [ -n \"$pash_err\" ]; then pash_status=$pash_err; ");
        out.push_str("elif [ -n \"$pash_min\" ]; then pash_status=$pash_min; fi\n");
    }
    out.push_str("for pash_p in $pash_pids; do kill -s PIPE \"$pash_p\" 2>/dev/null; done\n");
    if !fifos.is_empty() {
        out.push_str("rm -f");
        for e in &fifos {
            out.push_str(&format!(" {}", pipe_name(region, *e)));
        }
        out.push('\n');
    }
    out
}

fn pipe_name(region: usize, e: PlanEdgeId) -> String {
    format!("\"$PASH_TMP\"/r{region}_p{e}")
}

/// Quotes a word for the generated script.
pub fn shell_quote(s: &str) -> String {
    if !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_-./+=:%@^,".contains(c))
    {
        s.to_string()
    } else {
        format!("'{}'", s.replace('\'', "'\\''"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annot::stdlib::AnnotationLibrary;
    use crate::dfg::transform::{parallelize, TransformConfig};
    use crate::frontend::{translate, FrontendOptions};
    use crate::plan::lower;

    fn emit(src: &str, width: usize) -> String {
        let prog = pash_parser::parse(src).expect("parse");
        let mut tp = translate(
            &prog,
            AnnotationLibrary::standard(),
            &FrontendOptions::default(),
        )
        .expect("translate");
        for g in tp.regions_mut() {
            parallelize(
                g,
                &TransformConfig {
                    width,
                    ..Default::default()
                },
            );
        }
        emit_program(&lower(&tp), &EmitConfig)
    }

    #[test]
    fn fig3_shape_for_parallel_region() {
        let s = emit("cat in.txt | grep foo | sort > out.txt", 2);
        // The structural elements of Fig. 3.
        assert!(s.contains("mkfifo"));
        assert!(s.contains(" &\n"));
        assert!(s.contains("wait $pash_out_pids"));
        assert!(s.contains("kill -s PIPE"));
        // A copy's redirections are its own words: it opens them.
        assert!(s.contains(
            "\"$PASHC\" --stdin-seg in.txt 1 2 --stdout \"$PASH_TMP\"/r0_p4 grep foo &\n"
        ));
        assert!(s.contains("pash-agg-sort"));
        assert!(s.contains("eager"));
    }

    #[test]
    fn sequential_width_emits_without_split_copies() {
        let s = emit("grep foo in.txt > out.txt", 1);
        assert!(s.contains("grep foo"));
        assert!(!s.contains("--stdin-seg"));
    }

    #[test]
    fn shell_steps_pass_through() {
        let s = emit("x=$(date)\ngrep $x f", 2);
        assert!(s.contains("x=$(date)"));
        assert!(s.contains("grep"));
        assert!(!s.contains("mkfifo"));
    }

    #[test]
    fn guards_emit_status_checks() {
        let s = emit("grep x a > t && sort t > u", 2);
        assert!(s.contains("if [ \"$pash_status\" -eq 0 ]; then"));
    }

    #[test]
    fn script_exits_with_program_status() {
        let s = emit("grep x a > t", 2);
        assert!(s.trim_end().ends_with("exit \"$pash_status\""));
    }

    #[test]
    fn parallel_region_folds_source_statuses() {
        // Parallel grep: the cat-merge producer says nothing about
        // matches, so the script folds the copies' statuses.
        let s = emit("grep x in.txt > out.txt", 4);
        assert!(s.contains("pash_spids"));
        assert!(s.contains("pash_err"));
        // Sequential: the producer's own status stands; no fold code.
        let s1 = emit("grep x in.txt > out.txt", 1);
        assert!(!s1.contains("pash_spids"));
    }

    #[test]
    fn quoting_protects_special_arguments() {
        assert_eq!(shell_quote("plain-arg_1.txt"), "plain-arg_1.txt");
        assert_eq!(shell_quote("has space"), "'has space'");
        assert_eq!(shell_quote("a'b"), "'a'\\''b'");
        assert_eq!(shell_quote(""), "''");
        let s = emit("grep 'a b' in.txt > o", 2);
        assert!(s.contains("'a b'"));
    }

    #[test]
    fn script_is_reparseable_shell() {
        let s = emit("cat in.txt | tr A-Z a-z | sort > out.txt", 4);
        pash_parser::parse(&s).expect("emitted script parses");
    }

    #[test]
    fn file_output_redirected() {
        let s = emit("grep x in.txt > result.txt", 2);
        assert!(s.contains(" --stdout result.txt cat "));
    }
}
