//! Trace exporters: Chrome/Perfetto `trace_event` JSON and human-readable
//! per-trace trees with critical-path marking.
//!
//! [`chrome_trace_json`] renders collected [`SpanRecord`]s in the Chrome
//! tracing "JSON object format": `{"traceEvents": [...]}` of complete
//! (`"ph":"X"`) events, loadable in `ui.perfetto.dev` or
//! `chrome://tracing`. Each trace is mapped to its own `tid` so Perfetto
//! shows one row per restoration, labeled through a `thread_name` metadata
//! event with the root span's name and scheme.
//!
//! [`TraceTree`] reassembles the flat span list into parent/child trees and
//! renders them as indented text, marking the critical path (the chain of
//! longest-duration children) — what `rbpc-eval trace` prints.

use crate::trace::{SpanId, SpanRecord, TraceId};
use crate::value::{json_escape, write_value};
use crate::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders spans as Chrome `trace_event` JSON (the object format with a
/// `traceEvents` array), loadable in `ui.perfetto.dev`.
///
/// Timestamps and durations are microseconds with fractional precision
/// (the format's native unit). All events share `pid` 1; `tid` is the
/// trace id, so each restoration gets its own named row.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    // One thread_name metadata event per trace, labeled by its root span.
    let mut roots: BTreeMap<TraceId, &SpanRecord> = BTreeMap::new();
    for s in spans {
        if s.parent.is_none() {
            roots.entry(s.trace).or_insert(s);
        }
    }
    for (trace, root) in &roots {
        let mut label = format!("trace {} {}", trace.value(), root.name);
        if let Some(Value::Str(scheme)) = root.attr("scheme") {
            let _ = write!(label, " [{scheme}]");
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            trace.value(),
            json_escape(&label)
        );
    }
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        write_span(&mut out, s);
    }
    out.push_str("]}");
    out
}

/// Appends `s` as one complete (`"ph":"X"`) trace event: the element of
/// [`chrome_trace_json`]'s `traceEvents` array and, on its own line, of
/// the span stream.
pub(crate) fn write_span(out: &mut String, s: &SpanRecord) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
         \"pid\":1,\"tid\":{},\"args\":{{\"trace\":{},\"span\":{}",
        json_escape(s.name),
        json_escape(s.cat),
        s.start_ns as f64 / 1_000.0,
        s.dur_ns as f64 / 1_000.0,
        s.trace.value(),
        s.trace.value(),
        s.span.value(),
    );
    if let Some(p) = s.parent {
        let _ = write!(out, ",\"parent\":{}", p.value());
    }
    for (key, value) in &s.attrs {
        let _ = write!(out, ",\"{}\":", json_escape(key));
        write_value(out, value);
    }
    out.push_str("}}");
}

/// One span with its children, inside a [`TraceTree`].
#[derive(Debug, Clone)]
pub struct TraceNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Child spans, ordered by start time.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Total spans in this subtree (including this one).
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(TraceNode::span_count)
            .sum::<usize>()
    }
}

/// One reassembled trace: the root span and everything beneath it.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace's identity.
    pub trace: TraceId,
    /// The root span (no parent) with nested children.
    pub root: TraceNode,
}

impl TraceTree {
    /// Groups a flat span list by trace and nests children under parents,
    /// sorted by start time. Spans whose parent was never recorded (e.g.
    /// tracing started mid-restoration) are promoted to roots, so every
    /// span appears in exactly one tree.
    pub fn build(spans: &[SpanRecord]) -> Vec<TraceTree> {
        let mut by_trace: BTreeMap<TraceId, Vec<&SpanRecord>> = BTreeMap::new();
        for s in spans {
            by_trace.entry(s.trace).or_default().push(s);
        }
        let mut trees = Vec::new();
        for (trace, records) in by_trace {
            let known: std::collections::BTreeSet<SpanId> =
                records.iter().map(|r| r.span).collect();
            // Every span starts as a leaf node; then attach to parents.
            let mut nodes: BTreeMap<SpanId, TraceNode> = records
                .iter()
                .map(|r| {
                    (
                        r.span,
                        TraceNode {
                            record: (*r).clone(),
                            children: Vec::new(),
                        },
                    )
                })
                .collect();
            // Attach bottom-up: children sorted by span id are attached to
            // their parents in reverse id order, which is safe because a
            // child's id is always minted after its parent's.
            let ids: Vec<SpanId> = nodes.keys().rev().copied().collect();
            for id in ids {
                let parent = nodes[&id].record.parent.filter(|p| known.contains(p));
                if let Some(parent) = parent {
                    let node = nodes.remove(&id).expect("present by construction");
                    nodes
                        .get_mut(&parent)
                        .expect("filtered to known ids")
                        .children
                        .push(node);
                }
            }
            for (_, mut root) in nodes {
                sort_children(&mut root);
                trees.push(TraceTree { trace, root });
            }
        }
        trees
    }

    /// Total spans in the trace.
    pub fn span_count(&self) -> usize {
        self.root.span_count()
    }

    /// Renders the tree as indented text. Each line shows the span name,
    /// `[category]`, duration, and attributes; spans on the critical path
    /// (the chain of longest-duration children from the root) are marked
    /// with `*`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {} · {}",
            self.trace.value(),
            line_for(&self.root.record)
        );
        render_children(&mut out, &self.root, "", true);
        out
    }
}

fn sort_children(node: &mut TraceNode) {
    node.children
        .sort_by_key(|c| (c.record.start_ns, c.record.span));
    for c in &mut node.children {
        sort_children(c);
    }
}

fn fmt_dur(ns: u64) -> String {
    let us = ns as f64 / 1_000.0;
    if us >= 1_000_000.0 {
        format!("{:.2}s", us / 1_000_000.0)
    } else if us >= 1_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{us:.1}us")
    }
}

fn line_for(r: &SpanRecord) -> String {
    let mut line = format!("{} [{}] {}", r.name, r.cat, fmt_dur(r.dur_ns));
    for (key, value) in &r.attrs {
        let _ = write!(line, "  {key}=");
        write_value(&mut line, value);
    }
    line
}

fn render_children(out: &mut String, node: &TraceNode, prefix: &str, on_critical: bool) {
    // The critical-path child: the longest-duration one, if any.
    let critical = node
        .children
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| c.record.dur_ns)
        .map(|(i, _)| i);
    for (i, child) in node.children.iter().enumerate() {
        let last = i + 1 == node.children.len();
        let is_critical = on_critical && Some(i) == critical;
        let marker = if is_critical { "*" } else { " " };
        let _ = writeln!(
            out,
            "{prefix}{}{marker} {}",
            if last { "└─" } else { "├─" },
            line_for(&child.record)
        );
        let next = format!("{prefix}{}", if last { "   " } else { "│  " });
        render_children(out, child, &next, is_critical);
    }
}
