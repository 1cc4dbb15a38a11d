//! The PaSh front-end (§5.1): parallelizable regions and AST → DFG
//! translation.
//!
//! A *parallelizable region* is a maximal program fragment composable
//! from pipelines (`|`) and parallel composition (`&`). Barriers —
//! `;`, newlines, `&&`, `||`, and control flow — bound regions.
//! Translation is conservative: a region is lifted only when every
//! word in it expands statically (unset variables, command
//! substitutions, globs, and unusual redirections all cause the
//! fragment to be left as shell text, exactly as written).

use pash_parser::ast::{
    AndOr, AndOrOp, Command, CompleteCommand, CompoundCommand, Pipeline, Program, RedirOp,
    Separator, SimpleCommand,
};
use pash_parser::expand::{expand_word, expand_word_single, StaticEnv, WordExpansion};
use pash_parser::unparse;

use crate::annot::stdlib::AnnotationLibrary;
use crate::annot::{Classification, InputSlot};
use crate::backend::shell_quote;
use crate::classes::ParClass;
use crate::dfg::{Dfg, Edge, EdgeId, Node, NodeKind, StreamSpec};
use crate::plan::Arg;
use crate::Error;

/// One step of a compiled program, executed in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A parallelizable region lifted to a DFG.
    Region(Dfg),
    /// A fragment kept as shell text (barriers, dynamic fragments).
    Shell(String),
    /// Run the next step only if the previous succeeded (`&&`) or
    /// failed (`||`).
    Guard(AndOrOp),
}

/// A program after front-end translation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TranslatedProgram {
    /// Steps in execution order.
    pub steps: Vec<Step>,
}

impl TranslatedProgram {
    /// Number of DFG regions.
    pub fn region_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Region(_)))
            .count()
    }

    /// Iterates the DFG regions.
    pub fn regions(&self) -> impl Iterator<Item = &Dfg> {
        self.steps.iter().filter_map(|s| match s {
            Step::Region(g) => Some(g),
            _ => None,
        })
    }

    /// Mutable iteration over the DFG regions.
    pub fn regions_mut(&mut self) -> impl Iterator<Item = &mut Dfg> {
        self.steps.iter_mut().filter_map(|s| match s {
            Step::Region(g) => Some(g),
            _ => None,
        })
    }
}

/// Front-end options.
#[derive(Debug, Clone, Default)]
pub struct FrontendOptions {
    /// Initial static environment.
    pub env: StaticEnv,
    /// Unroll `for` loops whose word lists are static, compiling each
    /// iteration with the loop variable bound (the paper's running
    /// example relies on per-iteration compilation).
    pub unroll_for: bool,
}

/// Translates a parsed program into steps.
pub fn translate(
    prog: &Program,
    lib: &AnnotationLibrary,
    opts: &FrontendOptions,
) -> Result<TranslatedProgram, Error> {
    let mut fe = Frontend {
        lib,
        env: opts.env.clone(),
        unroll_for: opts.unroll_for,
        out: TranslatedProgram::default(),
    };
    for cc in &prog.commands {
        fe.complete_command(cc)?;
    }
    Ok(fe.out)
}

struct Frontend<'a> {
    lib: &'a AnnotationLibrary,
    env: StaticEnv,
    unroll_for: bool,
    out: TranslatedProgram,
}

impl Frontend<'_> {
    fn complete_command(&mut self, cc: &CompleteCommand) -> Result<(), Error> {
        // Group runs of `&`-separated and-or items: they parallel-
        // compose into one region when every one of them compiles.
        let mut i = 0;
        while i < cc.items.len() {
            let (ao, sep) = &cc.items[i];
            if *sep == Separator::Async {
                // Collect the `&` run: items i..j joined by `&`, plus
                // the item after the last `&`.
                let mut j = i;
                while j < cc.items.len() && cc.items[j].1 == Separator::Async {
                    j += 1;
                }
                let run: Vec<&AndOr> = cc.items[i..=j.min(cc.items.len() - 1)]
                    .iter()
                    .map(|(a, _)| a)
                    .collect();
                self.async_run(&run)?;
                i = j + 1;
                continue;
            }
            self.and_or(ao)?;
            i += 1;
        }
        Ok(())
    }

    /// A run of and-ors joined by `&` (task parallelism): merge into
    /// one region when all compile; otherwise emit as shell text.
    fn async_run(&mut self, run: &[&AndOr]) -> Result<(), Error> {
        let all_simple = run.iter().all(|ao| ao.rest.is_empty());
        if all_simple {
            let mut merged = Dfg::new();
            let mut ok = true;
            for ao in run {
                if self.pipeline_into(&ao.first, &mut merged).is_err() {
                    ok = false;
                    break;
                }
            }
            if ok {
                self.out.steps.push(Step::Region(merged));
                return Ok(());
            }
        }
        // Fallback: shell text with original separators.
        let texts: Vec<String> = run.iter().map(|ao| and_or_text(ao)).collect();
        self.shell(texts.join(" & "));
        // Track assignments even on the fallback path.
        for ao in run {
            self.track_pipeline_env(&ao.first);
        }
        Ok(())
    }

    fn and_or(&mut self, ao: &AndOr) -> Result<(), Error> {
        self.pipeline_step(&ao.first)?;
        for (op, p) in &ao.rest {
            self.out.steps.push(Step::Guard(*op));
            self.pipeline_step(p)?;
        }
        Ok(())
    }

    /// Emits one pipeline as a region or as shell text.
    fn pipeline_step(&mut self, p: &Pipeline) -> Result<(), Error> {
        // Assignment-only commands update the environment and stay as
        // shell text.
        if let [Command::Simple(sc)] = p.commands.as_slice() {
            if sc.words.is_empty() && sc.redirects.is_empty() && !sc.assignments.is_empty() {
                self.track_assignments(sc);
                self.out
                    .steps
                    .push(Step::Shell(unparse::pipeline_to_string(p)));
                return Ok(());
            }
        }
        // Compound commands: recurse for `for` unrolling, otherwise
        // barrier.
        if let [Command::Compound(CompoundCommand::For { var, words, body }, redirects)] =
            p.commands.as_slice()
        {
            if self.unroll_for && redirects.is_empty() && !p.bang {
                if let Some(ws) = words {
                    let mut values = Vec::new();
                    let mut all_static = true;
                    for w in ws {
                        match expand_word(w, &self.env) {
                            WordExpansion::Fields(fs) => values.extend(fs),
                            WordExpansion::Dynamic => {
                                all_static = false;
                                break;
                            }
                        }
                    }
                    if all_static {
                        let saved = self.env.clone();
                        for v in values {
                            self.env.set(var.clone(), v);
                            for cc in body {
                                self.complete_command(cc)?;
                            }
                        }
                        self.env = saved;
                        return Ok(());
                    }
                }
            }
        }
        let mut g = Dfg::new();
        match self.pipeline_into(p, &mut g) {
            Ok(()) => {
                self.out.steps.push(Step::Region(g));
                Ok(())
            }
            Err(_) => {
                self.shell(unparse::pipeline_to_string(p));
                self.track_pipeline_env(p);
                Ok(())
            }
        }
    }

    /// Emits `text` as a shell step, after the static bindings it
    /// expands (`x=a; …`): the compiler folded the assignments that
    /// made them, or unrolled the loop, and the step may run in a
    /// shell of its own.
    fn shell(&mut self, text: String) {
        let expands = |name: &str| {
            text.split('$').skip(1).any(|rest| {
                let rest = rest.strip_prefix('{').unwrap_or(rest).strip_prefix(name);
                rest.is_some_and(|r| {
                    !r.starts_with(|c: char| c == '_' || c.is_ascii_alphanumeric())
                })
            })
        };
        let vars = self
            .env
            .sorted_vars()
            .into_iter()
            .filter(|(name, _)| expands(name));
        let bindings: String = vars
            .map(|(n, v)| format!("{n}={}; ", shell_quote(v)))
            .collect();
        self.out.steps.push(Step::Shell(bindings + &text));
    }

    /// Records static assignments that occur anywhere in a pipeline we
    /// are keeping as shell text (so later regions see the bindings).
    fn track_pipeline_env(&mut self, p: &Pipeline) {
        for c in &p.commands {
            if let Command::Simple(sc) = c {
                if sc.words.is_empty() {
                    self.track_assignments(sc);
                }
            }
        }
    }

    fn track_assignments(&mut self, sc: &SimpleCommand) {
        for a in &sc.assignments {
            match expand_word_single(&a.value, &self.env) {
                Some(v) => self.env.set(a.name.clone(), v),
                None => self.env.unset(&a.name),
            }
        }
    }

    /// Translates one pipeline into (a fresh part of) a DFG.
    fn pipeline_into(&self, p: &Pipeline, g: &mut Dfg) -> Result<(), Error> {
        if p.bang {
            return Err(Error::frontend("`!` pipelines are not translated"));
        }
        if p.commands.is_empty() {
            return Err(Error::frontend("empty pipeline"));
        }
        let mut prev_edge: Option<EdgeId> = None;
        let n = p.commands.len();
        for (ci, cmd) in p.commands.iter().enumerate() {
            let sc = match cmd {
                Command::Simple(sc) => sc,
                _ => return Err(Error::frontend("compound command inside pipeline")),
            };
            if !sc.assignments.is_empty() {
                return Err(Error::frontend("per-command assignments are dynamic"));
            }
            // Expand argv.
            let mut argv: Vec<String> = Vec::new();
            for w in &sc.words {
                match expand_word(w, &self.env) {
                    WordExpansion::Fields(fs) => argv.extend(fs),
                    WordExpansion::Dynamic => {
                        return Err(Error::frontend(format!(
                            "dynamic word in `{}`",
                            unparse::pipeline_to_string(p)
                        )))
                    }
                }
            }
            if argv.is_empty() {
                return Err(Error::frontend("empty command"));
            }
            // Redirections: `< file` anywhere, `> file` on the last
            // command only.
            let mut stdin_file: Option<String> = None;
            let mut stdout_file: Option<String> = None;
            for r in &sc.redirects {
                let target = expand_word_single(&r.target, &self.env)
                    .ok_or_else(|| Error::frontend("dynamic redirect target"))?;
                match r.op {
                    RedirOp::Read => stdin_file = Some(target),
                    RedirOp::Write if ci + 1 == n => stdout_file = Some(target),
                    _ => {
                        return Err(Error::frontend(format!(
                            "unsupported redirection in `{}`",
                            unparse::pipeline_to_string(p)
                        )))
                    }
                }
            }
            // Classify; unknown commands run sequentially in place.
            let c = self.lib.classify(&argv).unwrap_or_else(|| Classification {
                class: ParClass::SideEffectful,
                inputs: vec![InputSlot::Stdin],
                static_files: Vec::new(),
                argv: argv.iter().cloned().map(Arg::Lit).collect(),
                map: argv,
                agg: None,
            });
            let inputs = &c.inputs;
            // Resolve input slots to edges.
            let mut input_edges = Vec::with_capacity(inputs.len());
            let mut used_prev = false;
            for slot in inputs {
                let spec = match slot {
                    InputSlot::Stdin if ci > 0 => {
                        used_prev = true;
                        input_edges.push(prev_edge.ok_or_else(|| {
                            Error::frontend("pipeline stage missing upstream pipe")
                        })?);
                        continue;
                    }
                    // Region boundary: `< file` or the script's stdin.
                    InputSlot::Stdin => stdin_file
                        .clone()
                        .map_or(StreamSpec::Pipe, StreamSpec::File),
                    InputSlot::File(f) => StreamSpec::File(f.clone()),
                };
                input_edges.push(g.add_edge(Edge {
                    spec,
                    from: None,
                    to: None,
                }));
            }
            if ci > 0 && !used_prev {
                return Err(Error::frontend(
                    "pipeline stage ignores its upstream pipe (not translatable)",
                ));
            }
            if ci == 0 && stdin_file.is_some() && !inputs.contains(&InputSlot::Stdin) {
                return Err(Error::frontend(
                    "stdin redirect on a command that does not read stdin",
                ));
            }
            // Build the node. A plain `cat` *is* the DFG's
            // concatenation primitive — normalizing it lets the
            // parallelization transformation commute through it
            // (Fig. 4): every word after the name is a streamed
            // operand.
            let is_plain_cat = c.argv[0].as_lit() == Some("cat")
                && c.argv[1..]
                    .iter()
                    .all(|a| matches!(a, Arg::Stream(_)) || a.as_lit() == Some("-"));
            let kind = if is_plain_cat {
                NodeKind::Cat
            } else {
                NodeKind::Command {
                    argv: c.argv,
                    class: c.class,
                    agg: c.agg,
                    map: c.map,
                }
            };
            let node_id = g.add_node(Node {
                kind,
                inputs: input_edges.clone(),
                outputs: vec![],
            });
            for e in input_edges {
                g.edge_mut(e).to = Some(node_id);
            }
            let out_spec = match (&stdout_file, ci + 1 == n) {
                (Some(f), true) => StreamSpec::File(f.clone()),
                _ => StreamSpec::Pipe,
            };
            let out_edge = g.add_edge(Edge {
                spec: out_spec,
                from: Some(node_id),
                to: None,
            });
            g.node_mut(node_id).expect("just added").outputs = vec![out_edge];
            prev_edge = Some(out_edge);
        }
        g.validate()?;
        Ok(())
    }
}

fn and_or_text(ao: &AndOr) -> String {
    let mut s = unparse::pipeline_to_string(&ao.first);
    for (op, p) in &ao.rest {
        s.push_str(match op {
            AndOrOp::AndIf => " && ",
            AndOrOp::OrIf => " || ",
        });
        s.push_str(&unparse::pipeline_to_string(p));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::NodeKind;

    fn translate_src(src: &str) -> TranslatedProgram {
        let prog = pash_parser::parse(src).expect("parse");
        translate(
            &prog,
            AnnotationLibrary::standard(),
            &FrontendOptions {
                unroll_for: true,
                ..Default::default()
            },
        )
        .expect("translate")
    }

    fn first_region(tp: &TranslatedProgram) -> &Dfg {
        tp.regions().next().expect("at least one region")
    }

    #[test]
    fn simple_pipeline_is_one_region() {
        let tp = translate_src("cat in.txt | tr A-Z a-z | grep x > out.txt");
        assert_eq!(tp.region_count(), 1);
        let g = first_region(&tp);
        assert_eq!(g.node_count(), 3);
        // Input is the file, output is the file.
        assert!(matches!(
            g.edge(g.input_edges()[0]).spec,
            StreamSpec::File(_)
        ));
        assert!(matches!(
            g.edge(g.output_edges()[0]).spec,
            StreamSpec::File(_)
        ));
    }

    #[test]
    fn barriers_split_regions() {
        let tp = translate_src("cat a | grep x > t; sort t > u");
        assert_eq!(tp.region_count(), 2);
    }

    #[test]
    fn and_or_emits_guards() {
        let tp = translate_src("grep x a > t && sort t");
        assert_eq!(tp.region_count(), 2);
        assert!(tp
            .steps
            .iter()
            .any(|s| matches!(s, Step::Guard(AndOrOp::AndIf))));
    }

    #[test]
    fn async_pipelines_merge_into_one_region() {
        // The Diff benchmark shape.
        let tp = translate_src("sort a > t1 & sort b > t2");
        assert_eq!(tp.region_count(), 1);
        let g = first_region(&tp);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.input_edges().len(), 2);
        assert_eq!(g.output_edges().len(), 2);
    }

    #[test]
    fn dynamic_word_falls_back_to_shell() {
        let tp = translate_src("grep $PATTERN file.txt");
        assert_eq!(tp.region_count(), 0);
        assert!(matches!(tp.steps.as_slice(), [Step::Shell(_)]));
    }

    #[test]
    fn known_assignment_enables_translation() {
        let tp = translate_src("pat=foo\ngrep $pat file.txt > o");
        assert_eq!(tp.region_count(), 1);
        let g = first_region(&tp);
        let node = g.node(g.topo_order()[0]).expect("node");
        match &node.kind {
            NodeKind::Command { argv, .. } => {
                // The streamed file stays an operand, named by its input.
                let mut words = ["grep", "foo"].map(|w| Arg::Lit(w.to_string())).to_vec();
                words.push(Arg::Stream(0));
                assert_eq!(argv, &words);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dynamic_assignment_poisons_variable() {
        let tp = translate_src("pat=$(cat f)\ngrep $pat file.txt");
        assert_eq!(tp.region_count(), 0);
    }

    #[test]
    fn command_substitution_is_conservative() {
        let tp = translate_src("grep $(head -n1 p) file.txt");
        assert_eq!(tp.region_count(), 0);
    }

    #[test]
    fn unknown_command_still_in_region_as_side_effectful() {
        let tp = translate_src("cat a.txt | frobnicate | grep x");
        assert_eq!(tp.region_count(), 1);
        let g = first_region(&tp);
        let classes: Vec<ParClass> = g
            .topo_order()
            .iter()
            .filter_map(|&id| match &g.node(id).expect("live").kind {
                NodeKind::Command { class, .. } => Some(*class),
                _ => None,
            })
            .collect();
        // `cat` was normalized to the DFG Cat primitive; the two
        // remaining command nodes are the unknown one and grep.
        assert_eq!(classes, vec![ParClass::SideEffectful, ParClass::Stateless]);
    }

    #[test]
    fn comm_static_input_replicates_with_the_node() {
        let tp = translate_src("sort words | comm -13 dict.txt -");
        let g = first_region(&tp);
        let comm_id = g
            .topo_order()
            .into_iter()
            .find(|&id| g.node(id).expect("live").label().starts_with("comm"))
            .expect("comm node");
        let comm = g.node(comm_id).expect("live");
        // The dictionary is a word of every copy, not an edge.
        assert_eq!(comm.inputs.len(), 1);
        match &comm.kind {
            NodeKind::Command { map, class, .. } => {
                assert_eq!(map, &["comm", "-13", "dict.txt", "-"]);
                assert_eq!(*class, ParClass::Stateless);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn for_loop_unrolls_with_static_words() {
        let tp =
            translate_src("for y in {2015..2017}; do cat data-$y.txt | grep x > out-$y.txt; done");
        assert_eq!(tp.region_count(), 3);
        let inputs: Vec<String> = tp
            .regions()
            .map(|g| match &g.edge(g.input_edges()[0]).spec {
                StreamSpec::File(f) => f.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            inputs,
            vec!["data-2015.txt", "data-2016.txt", "data-2017.txt"]
        );
    }

    #[test]
    fn loop_variable_scoping_restored() {
        let tp =
            translate_src("y=global\nfor y in 1 2; do cat f-$y > o-$y; done\ncat f-$y > o-final");
        // Two unrolled regions + the final one using y=global.
        assert_eq!(tp.region_count(), 3);
        let last = tp.regions().last().expect("last region");
        match &last.edge(last.input_edges()[0]).spec {
            StreamSpec::File(f) => assert_eq!(f, "f-global"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sort_gets_aggregator() {
        let tp = translate_src("sort -rn data.txt > out");
        let g = first_region(&tp);
        match &g.node(g.topo_order()[0]).expect("live").kind {
            NodeKind::Command { agg, .. } => {
                let agg = agg.as_ref().expect("an aggregator");
                assert_eq!(agg.argv, ["pash-agg-sort", "-rn"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn append_redirect_is_conservative() {
        let tp = translate_src("grep x f >> log");
        assert_eq!(tp.region_count(), 0);
    }

    #[test]
    fn stdin_redirect_binds_first_command() {
        let tp = translate_src("tr A-Z a-z < in.txt > out.txt");
        let g = first_region(&tp);
        assert!(matches!(
            g.edge(g.input_edges()[0]).spec,
            StreamSpec::File(ref f) if f == "in.txt"
        ));
    }

    #[test]
    fn weather_for_loop_shape() {
        // A local-mirror version of Fig. 1's body.
        let src = r#"base=mirror
for y in {2015..2016}; do
  cat $base/$y/index.txt | grep rec | cut -d " " -f9 |
  sed "s;^;$base/$y/;" | xargs -n 1 fetch | unrle |
  cut -c 89-92 | grep -iv 999 | sort -rn | head -n 1 |
  sed "s/^/Maximum temperature for $y is: /" > out-$y.txt
done"#;
        let tp = translate_src(src);
        assert_eq!(tp.region_count(), 2);
        for g in tp.regions() {
            // 11 stages: cat, grep, cut, sed, xargs, unrle, cut,
            // grep, sort, head, sed.
            assert_eq!(g.node_count(), 11);
            g.validate().expect("valid");
        }
    }
}
