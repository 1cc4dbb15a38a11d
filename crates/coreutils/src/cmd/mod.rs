//! Command implementations and the standard registry.

pub mod cat;
pub mod comm;
pub mod custom;
pub mod cut;
pub mod diff;
pub mod grep;
pub mod hash;
pub mod headtail;
pub mod misc;
pub mod sed;
pub mod sort;
pub mod tr;
pub mod uniq;
pub mod wc;
pub mod xargs;

use std::sync::Arc;

use crate::Command;

/// All commands shipped by this crate.
pub fn all_commands() -> Vec<(&'static str, Arc<dyn Command>)> {
    vec![
        ("cat", Arc::new(cat::Cat)),
        ("tac", Arc::new(cat::Tac)),
        ("tr", Arc::new(tr::Tr)),
        ("cut", Arc::new(cut::Cut)),
        ("grep", Arc::new(grep::Grep)),
        ("sed", Arc::new(sed::Sed)),
        ("sort", Arc::new(sort::Sort)),
        ("uniq", Arc::new(uniq::Uniq)),
        ("wc", Arc::new(wc::Wc)),
        ("head", Arc::new(headtail::Head)),
        ("tail", Arc::new(headtail::Tail)),
        ("comm", Arc::new(comm::Comm)),
        ("rev", Arc::new(misc::Rev)),
        ("seq", Arc::new(misc::Seq)),
        ("echo", Arc::new(misc::Echo)),
        ("paste", Arc::new(misc::Paste)),
        ("fold", Arc::new(misc::Fold)),
        ("tee", Arc::new(misc::Tee)),
        ("nl", Arc::new(misc::Nl)),
        ("true", Arc::new(misc::True)),
        ("false", Arc::new(misc::False)),
        ("xargs", Arc::new(xargs::Xargs)),
        ("sha1sum", Arc::new(hash::Sha1Sum)),
        ("diff", Arc::new(diff::Diff)),
        ("fetch", Arc::new(custom::Fetch)),
        ("unrle", Arc::new(custom::Unrle)),
        ("html-to-text", Arc::new(custom::HtmlToText)),
        ("word-stem", Arc::new(custom::WordStem)),
        ("bigrams-aux", Arc::new(custom::BigramsAux)),
        ("awk-reorder", Arc::new(custom::AwkReorder)),
    ]
}
