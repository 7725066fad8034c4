//! The second analysis tier: four token-aware concurrency & hot-path
//! rules built on [`crate::token`] and [`crate::tree`].
//!
//! | rule | what it catches |
//! |------|-----------------|
//! | `atomics-order` | `Ordering::Relaxed` on atomics shared across threads (written from a `spawn` closure, a `static`, or a shared type) without an allow + safety note |
//! | `lock-discipline` | `Mutex`/`RwLock` guards held across calls to other locking functions (ordering-inversion candidates) and guards bound with `let _ =` (dropped immediately) |
//! | `hot-path` | heap allocation, truncating `as` casts, and compound index expressions inside `// lint:hot` regions, and a marker that binds to a closure body alone |
//! | `debug-invariants` | `debug_assert!` in a hot region with no release-mode test registered in `crates/lint/lint-invariants.txt` |
//!
//! Unlike the v1 line rules these pattern-match *token sequences*, so a
//! string literal mentioning `.lock()` or a nested closure cannot trip
//! them, and spans are exact. All four run on library code only and skip
//! `#[cfg(test)]` regions.
//!
//! `atomics-order` has a stricter escape hatch than the other rules: the
//! `// lint:allow(atomics-order)` comment must carry a one-line safety
//! note (why Relaxed is sufficient at this site) or the allow itself is
//! reported.

use crate::scan::{FileKind, SourceFile};
use crate::token::{TokKind, Tokens};
use crate::{CrateInfo, Finding, Workspace};

/// Names of the second-tier rules, in the order they run.
pub const RULES2: &[&str] = &[
    "atomics-order",
    "lock-discipline",
    "hot-path",
    "debug-invariants",
];

/// Crates whose atomics are shared by construction (metric registries,
/// profiler rings): every Relaxed write there needs a safety note even
/// without a visible `spawn` in the same file.
const SHARED_CRATES: &[&str] = &["rbpc-obs"];

/// Atomic methods that take an `Ordering` argument.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// The five memory orderings.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Runs the four token rules over the workspace, appending to `out`.
pub fn run_all(ws: &Workspace, out: &mut Vec<Finding>) {
    for krate in &ws.crates {
        let locking_fns = crate_locking_fns(krate);
        for file in &krate.files {
            if file.kind != FileKind::Lib {
                continue;
            }
            atomics_order(krate, file, out);
            lock_discipline(file, &locking_fns, out);
            hot_path(file, out);
            debug_invariants(ws, file, out);
        }
    }
    stale_invariant_entries(ws, out);
}

// ---------------------------------------------------------------------------
// shared token helpers
// ---------------------------------------------------------------------------

/// 1-based column of token `tok`.
fn col_of(t: &Tokens, tok: usize) -> usize {
    let lo = t.toks[tok].lo as usize;
    let b = t.text.as_bytes();
    let start = b[..lo]
        .iter()
        .rposition(|&c| c == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    lo - start + 1
}

/// 1-based line of token `tok`.
fn line_of(t: &Tokens, tok: usize) -> usize {
    t.toks[tok].line as usize
}

/// Whether the line holding `tok` is inside a `#[cfg(test)]` region.
fn masked(file: &SourceFile, tok: usize) -> bool {
    let ln = line_of(&file.tokens, tok);
    file.lines
        .get(ln.wrapping_sub(1))
        .is_some_and(|l| l.in_test)
}

/// Nearest identifier left of the `.` at token `dot`, skipping balanced
/// `[…]` / `(…)` groups — the field/binding an atomic or lock method is
/// called on (`self.hits.load(…)` → `hits`, `recs[v].dist` → `recs`).
fn receiver_ident(t: &Tokens, dot: usize) -> Option<String> {
    let mut j = dot;
    let mut depth = 0i64;
    while j > 0 {
        j = t.prev_code(j)?;
        match t.toks[j].kind {
            TokKind::Punct => match t.text_of(j) {
                "]" | ")" => depth += 1,
                "[" | "(" => {
                    if depth == 0 {
                        return None;
                    }
                    depth -= 1;
                }
                "." | "::" if depth == 0 => {}
                _ if depth == 0 => return None,
                _ => {}
            },
            TokKind::Ident if depth == 0 => return Some(t.text_of(j).to_string()),
            _ if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Whether token `i` is a method call `.<name>(`, returning the index of
/// the opening paren.
fn method_call(t: &Tokens, i: usize, name: &str) -> Option<usize> {
    if !t.is_ident(i, name) {
        return None;
    }
    let dot = t.prev_code(i)?;
    if !t.is_punct(dot, ".") {
        return None;
    }
    t.next_code(i + 1).filter(|&o| t.is_punct(o, "("))
}

/// How a `lint:allow(<rule>)` on/above `line` is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AllowNote {
    /// No allow for this rule here.
    Absent,
    /// Allow present, no prose next to it.
    Bare,
    /// Allow present with a written note.
    WithNote,
}

/// Inspects the allow covering 1-based `line` (same line or the one
/// above) and reports whether it carries a prose note — text in the same
/// comment beyond the marker itself.
fn allow_note(file: &SourceFile, rule: &str, line: usize) -> AllowNote {
    let mut best = AllowNote::Absent;
    for idx in [line.wrapping_sub(1), line.wrapping_sub(2)] {
        let Some(l) = file.lines.get(idx) else {
            continue;
        };
        if !l.allows.iter().any(|a| a == rule) {
            continue;
        }
        let raw = &l.raw;
        let Some(at) = raw.find("lint:allow(") else {
            continue;
        };
        let after = raw[at..]
            .find(')')
            .map(|p| &raw[at + p + 1..])
            .unwrap_or("");
        let comment_start = raw[..at].rfind("//").or_else(|| raw[..at].rfind("/*"));
        let before = comment_start
            .map(|c| raw[c + 2..at].trim_start_matches(['/', '!']))
            .unwrap_or("");
        let is_note = |s: &str| {
            s.trim_matches([' ', '\t', '-', ':', ';', ',', '.', '*'])
                .len()
                >= 3
        };
        if is_note(after) || is_note(before) {
            return AllowNote::WithNote;
        }
        best = AllowNote::Bare;
    }
    best
}

// ---------------------------------------------------------------------------
// atomics-order
// ---------------------------------------------------------------------------

/// One atomic call site: method token, receiver, orderings in its args.
struct AtomicSite {
    tok: usize,
    method: &'static str,
    receiver: Option<String>,
    relaxed: bool,
}

/// Collects the atomic call sites of `file` — method calls from
/// [`ATOMIC_METHODS`] whose argument list names a memory ordering.
fn atomic_sites(file: &SourceFile) -> Vec<AtomicSite> {
    let t = &file.tokens;
    let mut sites = Vec::new();
    for i in 0..t.toks.len() {
        let Some(&method) = ATOMIC_METHODS.iter().find(|&&m| t.is_ident(i, m)) else {
            continue;
        };
        let Some(open) = method_call(t, i, method) else {
            continue;
        };
        let Some(close) = t.matching_close(open) else {
            continue;
        };
        let mut relaxed = false;
        let mut any_ordering = false;
        for k in open..close {
            if t.toks[k].kind == TokKind::Ident && ORDERINGS.contains(&t.text_of(k)) {
                any_ordering = true;
                if t.text_of(k) == "Relaxed" {
                    relaxed = true;
                }
            }
        }
        if !any_ordering {
            continue; // not an atomic call (e.g. io::Read::load-alikes)
        }
        let dot = t.prev_code(i).unwrap_or(i);
        sites.push(AtomicSite {
            tok: i,
            method,
            receiver: receiver_ident(t, dot),
            relaxed,
        });
    }
    sites
}

/// Relaxed-ordering audit. A `Relaxed` access is flagged when the atomic
/// is demonstrably cross-thread: the site sits inside a `spawn(…)`
/// closure, the receiver is a `static` atomic, or the file shares state
/// (`spawn`/`scope`/`Arc<`/`impl Sync`, or the crate is in
/// [`SHARED_CRATES`]) *and* the receiver is written somewhere in the
/// file. The escape hatch must carry a safety note.
fn atomics_order(krate: &CrateInfo, file: &SourceFile, out: &mut Vec<Finding>) {
    let t = &file.tokens;
    let sites = atomic_sites(file);
    if sites.is_empty() {
        return;
    }
    // `spawn(…)` argument spans: token ranges running on another thread.
    let mut spawn_spans: Vec<(usize, usize)> = Vec::new();
    for i in 0..t.toks.len() {
        if t.is_ident(i, "spawn") {
            if let Some(open) = t.next_code(i + 1).filter(|&o| t.is_punct(o, "(")) {
                if let Some(close) = t.matching_close(open) {
                    spawn_spans.push((open, close));
                }
            }
        }
    }
    // `static NAME: …Atomic…` declarations.
    let mut statics: Vec<String> = Vec::new();
    for i in 0..t.toks.len() {
        if !t.is_ident(i, "static") {
            continue;
        }
        let Some(n) = t.next_code(i + 1) else {
            continue;
        };
        let name = if t.is_ident(n, "mut") {
            t.next_code(n + 1)
        } else {
            Some(n)
        };
        if let Some(n) = name.filter(|&n| t.toks[n].kind == TokKind::Ident) {
            // Type tokens up to `=` or `;`: any `Atomic*` ident counts.
            let mut k = n + 1;
            while let Some(j) = t.next_code(k) {
                if t.is_punct(j, "=") || t.is_punct(j, ";") {
                    break;
                }
                if t.toks[j].kind == TokKind::Ident && t.text_of(j).starts_with("Atomic") {
                    statics.push(t.text_of(n).to_string());
                    break;
                }
                k = j + 1;
            }
        }
    }
    let file_shared = SHARED_CRATES.contains(&krate.name.as_str())
        || file.lines.iter().any(|l| {
            let s = &l.code_nostr;
            s.contains("spawn(")
                || s.contains("scope(")
                || s.contains("Arc<")
                || s.contains("impl Sync")
        });
    let written: Vec<&String> = sites
        .iter()
        .filter(|s| s.method != "load")
        .filter_map(|s| s.receiver.as_ref())
        .collect();
    for site in &sites {
        if !site.relaxed || masked(file, site.tok) {
            continue;
        }
        let in_spawn = spawn_spans
            .iter()
            .any(|&(open, close)| open < site.tok && site.tok < close);
        let is_static = site
            .receiver
            .as_ref()
            .is_some_and(|r| statics.iter().any(|s| s == r));
        let receiver_written =
            site.method != "load" || site.receiver.as_ref().is_some_and(|r| written.contains(&r));
        let why = if in_spawn {
            "the access runs inside a spawn(…) closure"
        } else if is_static {
            "the receiver is a static atomic visible to every thread"
        } else if file_shared && receiver_written {
            "the file shares state across threads and the atomic is written here"
        } else {
            continue;
        };
        let ln = line_of(t, site.tok);
        match allow_note(file, "atomics-order", ln) {
            AllowNote::WithNote => continue,
            AllowNote::Bare => {
                out.push(
                    Finding::new(
                        "atomics-order",
                        file.path.clone(),
                        ln,
                        format!(
                            "`lint:allow(atomics-order)` on `{}.{}(Relaxed)` has no safety \
                             note; add one line saying why Relaxed is sufficient here",
                            site.receiver.as_deref().unwrap_or("<expr>"),
                            site.method
                        ),
                    )
                    .with_col(col_of(t, site.tok)),
                );
            }
            AllowNote::Absent => {
                out.push(
                    Finding::new(
                        "atomics-order",
                        file.path.clone(),
                        ln,
                        format!(
                            "`{}.{}(…Relaxed…)` on a cross-thread atomic ({why}); use \
                             Acquire/Release (or SeqCst), or allow-list with a one-line \
                             safety note",
                            site.receiver.as_deref().unwrap_or("<expr>"),
                            site.method
                        ),
                    )
                    .with_col(col_of(t, site.tok)),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------------

/// One lock acquisition: the method/function token and what it locks.
struct LockSite {
    tok: usize,
    what: String,
}

/// Collects the lock acquisitions of `file`: `.lock()` / `.read()` /
/// `.write()` with **empty** argument lists (gated on the file actually
/// naming `Mutex` / `RwLock`, so `io::stdout().lock()` and `Read::read`
/// stay out), plus `lock_unpoisoned(…)` calls.
fn lock_sites(file: &SourceFile) -> Vec<LockSite> {
    let t = &file.tokens;
    let has_mutex = file
        .lines
        .iter()
        .any(|l| l.code_nostr.contains("Mutex") || l.code_nostr.contains("lock_unpoisoned"));
    let has_rwlock = file.lines.iter().any(|l| l.code_nostr.contains("RwLock"));
    let mut sites = Vec::new();
    for i in 0..t.toks.len() {
        let is_lock = has_mutex && t.is_ident(i, "lock");
        let is_rw = has_rwlock && (t.is_ident(i, "read") || t.is_ident(i, "write"));
        if is_lock || is_rw {
            let name = t.text_of(i).to_string();
            let Some(open) = method_call(t, i, &name) else {
                continue;
            };
            // Guards come from zero-arg calls; `file.write(buf)` does not.
            if !t.next_code(open + 1).is_some_and(|c| t.is_punct(c, ")")) {
                continue;
            }
            let dot = t.prev_code(i).unwrap_or(i);
            let recv = receiver_ident(t, dot);
            if recv
                .as_deref()
                .is_some_and(|r| matches!(r, "stdout" | "stderr" | "stdin"))
            {
                continue;
            }
            sites.push(LockSite {
                tok: i,
                what: format!("{}.{name}()", recv.as_deref().unwrap_or("<expr>")),
            });
        } else if has_mutex
            && t.is_ident(i, "lock_unpoisoned")
            && t.next_code(i + 1).is_some_and(|o| t.is_punct(o, "("))
            && !t.prev_code(i).is_some_and(|p| t.is_ident(p, "fn"))
        {
            sites.push(LockSite {
                tok: i,
                what: "lock_unpoisoned(…)".to_string(),
            });
        }
    }
    sites
}

/// Names of this crate's functions whose bodies acquire a lock — calling
/// one while holding a guard is the cross-function half of the
/// inversion check. `lock_unpoisoned` itself is treated as a primitive.
fn crate_locking_fns(krate: &CrateInfo) -> Vec<String> {
    let mut fns = Vec::new();
    for file in &krate.files {
        if file.kind != FileKind::Lib {
            continue;
        }
        let sites = lock_sites(file);
        for blk in &file.tree.blocks {
            let Some(name) = blk.fn_name.as_deref() else {
                continue;
            };
            if name == "lock_unpoisoned" || fns.iter().any(|f| f == name) {
                continue;
            }
            if sites.iter().any(|s| blk.open < s.tok && s.tok < blk.close) {
                fns.push(name.to_string());
            }
        }
    }
    fns
}

/// Start-of-statement token index for the statement containing `tok`:
/// one past the previous `;` / `{` / `}` at group depth 0.
fn stmt_start(t: &Tokens, tok: usize) -> usize {
    let mut j = tok;
    let mut depth = 0i64;
    while let Some(p) = t.prev_code(j) {
        match t.text_of(p) {
            ")" | "]" if t.toks[p].kind == TokKind::Punct => depth += 1,
            "(" | "[" if t.toks[p].kind == TokKind::Punct => depth -= 1,
            ";" | "{" | "}" if t.toks[p].kind == TokKind::Punct && depth == 0 => {
                return p + 1;
            }
            _ => {}
        }
        j = p;
    }
    0
}

/// The `;` ending the statement that contains `tok` (group-depth aware).
fn stmt_end(t: &Tokens, tok: usize) -> Option<usize> {
    let mut depth = 0i64;
    for j in tok..t.toks.len() {
        if t.toks[j].kind != TokKind::Punct {
            continue;
        }
        match t.text_of(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => return Some(j),
            _ => {}
        }
    }
    None
}

/// The binding pattern of the `let` statement starting at `start`, if it
/// is one: `Some((name, conditional))` where `name` is the last plain
/// identifier of the pattern (so `let Ok(g)` and tuples resolve to the
/// guard) or `"_"`, and `conditional` marks `if let` / `while let` —
/// whose scrutinee temporaries live across the body block, not to the
/// end of the enclosing one.
fn let_binding(t: &Tokens, start: usize) -> Option<(String, bool)> {
    let mut j = t.next_code(start)?;
    // `if let` / `while let` prefixes.
    let conditional = t.is_ident(j, "if") || t.is_ident(j, "while");
    if conditional {
        j = t.next_code(j + 1)?;
    }
    if !t.is_ident(j, "let") {
        return None;
    }
    let mut name: Option<String> = None;
    let mut k = j + 1;
    while let Some(n) = t.next_code(k) {
        if t.is_punct(n, "=") {
            return Some((name.unwrap_or_else(|| "_".to_string()), conditional));
        }
        if t.toks[n].kind == TokKind::Ident {
            let w = t.text_of(n);
            if !matches!(w, "mut" | "ref" | "Ok" | "Some" | "Err" | "_") {
                name = Some(w.to_string());
            } else if w == "_" && name.is_none() {
                // `_` lexes as an identifier.
                name = Some("_".to_string());
            }
        }
        k = n + 1;
    }
    None
}

/// The `{ … }` body following an `if let` / `while let` scrutinee whose
/// lock call closes at `close`: token indices of the `{` and its `}`.
fn body_block(t: &Tokens, close: usize) -> Option<(usize, usize)> {
    let mut depth = 0i64;
    for j in (close + 1)..t.toks.len() {
        if t.toks[j].kind != TokKind::Punct {
            continue;
        }
        match t.text_of(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return t.matching_close(j).map(|c| (j, c)),
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Whether the call chain after the lock call closing at `close` ends in
/// the guard itself — only `.unwrap()` / `.expect(…)` may follow before
/// the `;`. (`stdout.lock().flush()` style chains consume the guard and
/// are fine to bind to `_`.)
fn chain_ends_in_guard(t: &Tokens, close: usize) -> bool {
    let mut j = match t.next_code(close + 1) {
        Some(j) => j,
        None => return false,
    };
    loop {
        if t.is_punct(j, ";") {
            return true;
        }
        if !t.is_punct(j, ".") {
            return false;
        }
        let Some(m) = t.next_code(j + 1) else {
            return false;
        };
        if !(t.is_ident(m, "unwrap") || t.is_ident(m, "expect")) {
            return false;
        }
        let Some(open) = t.next_code(m + 1).filter(|&o| t.is_punct(o, "(")) else {
            return false;
        };
        let Some(c) = t.matching_close(open) else {
            return false;
        };
        j = match t.next_code(c + 1) {
            Some(j) => j,
            None => return false,
        };
    }
}

/// Lock discipline: (a) a guard bound with `let _ =` is dropped on the
/// same line — the critical section is empty, which is almost never the
/// intent; (b) a named guard that stays live across *another* lock
/// acquisition (directly or through a crate-local locking function) is a
/// lock-ordering-inversion candidate.
fn lock_discipline(file: &SourceFile, locking_fns: &[String], out: &mut Vec<Finding>) {
    let t = &file.tokens;
    let sites = lock_sites(file);
    if sites.is_empty() {
        return;
    }
    let site_toks: Vec<usize> = sites.iter().map(|s| s.tok).collect();
    for site in &sites {
        if masked(file, site.tok) {
            continue;
        }
        let ln = line_of(t, site.tok);
        if file.allowed("lock-discipline", ln) {
            continue;
        }
        let start = stmt_start(t, site.tok);
        let Some((binding, conditional)) = let_binding(t, start) else {
            continue;
        };
        let close = match method_call(t, site.tok, t.text_of(site.tok))
            .or_else(|| t.next_code(site.tok + 1).filter(|&o| t.is_punct(o, "(")))
            .and_then(|o| t.matching_close(o))
        {
            Some(c) => c,
            None => continue,
        };
        if binding == "_" && !conditional {
            if chain_ends_in_guard(t, close) {
                let raw = &file.lines[ln - 1].raw;
                let suggestion = raw
                    .contains("let _ =")
                    .then(|| raw.replacen("let _ =", "let _guard =", 1));
                let mut f = Finding::new(
                    "lock-discipline",
                    file.path.clone(),
                    ln,
                    format!(
                        "`let _ = {}` drops the guard immediately — the critical section \
                         is empty; bind it (`let _guard = …`) or delete the call",
                        site.what
                    ),
                )
                .with_col(col_of(t, site.tok));
                f.suggestion = suggestion;
                out.push(f);
            }
            continue;
        }
        // Guard live range. Plain `let g = …lock();`: from the end of
        // the statement to the end of the enclosing block (or an
        // explicit `drop(g)`) — but only when the chain actually ends in
        // the guard (`let n = m.lock().map.len();` drops it at the `;`).
        // `if let` / `while let`: the scrutinee temporary (and any
        // binding into it) is lifetime-extended across the body block,
        // so that block is the range whether or not the chain ends in
        // the guard.
        let (range_start, range_end) = if conditional {
            match body_block(t, close) {
                Some((open, end)) => (open + 1, end),
                None => continue,
            }
        } else {
            if !chain_ends_in_guard(t, close) {
                continue;
            }
            let Some(semi) = stmt_end(t, site.tok) else {
                continue;
            };
            let block_close = file
                .tree
                .block_at(site.tok)
                .map(|b| file.tree.blocks[b].close)
                .unwrap_or(t.toks.len());
            (semi + 1, block_close)
        };
        let mut j = range_start;
        while j < range_end {
            if t.is_ident(j, "drop")
                && t.next_code(j + 1).is_some_and(|o| t.is_punct(o, "("))
                && t.next_code(j + 1)
                    .and_then(|o| t.next_code(o + 1))
                    .is_some_and(|a| t.is_ident(a, &binding))
            {
                break;
            }
            let conflict = if site_toks.contains(&j) {
                Some(
                    sites
                        .iter()
                        .find(|s| s.tok == j)
                        .map(|s| s.what.clone())
                        .unwrap_or_default(),
                )
            } else if t.toks[j].kind == TokKind::Ident
                && locking_fns.iter().any(|f| f == t.text_of(j))
                && t.next_code(j + 1).is_some_and(|o| t.is_punct(o, "("))
            {
                Some(format!("{}(…)", t.text_of(j)))
            } else {
                None
            };
            if let Some(what) = conflict {
                if !masked(file, j) && !file.allowed("lock-discipline", line_of(t, j)) {
                    out.push(
                        Finding::new(
                            "lock-discipline",
                            file.path.clone(),
                            line_of(t, j),
                            format!(
                                "guard `{binding}` (from {} at line {ln}) is still live \
                                 across `{what}` — lock-ordering inversion candidate; \
                                 scope the guard or drop({binding}) first",
                                site.what
                            ),
                        )
                        .with_col(col_of(t, j)),
                    );
                }
                break; // one conflict per guard is enough signal
            }
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// hot-path
// ---------------------------------------------------------------------------

/// Heap-allocating (or potentially allocating) method names.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "extend",
    "reserve",
    "insert",
    "collect",
    "to_vec",
    "to_string",
    "to_owned",
    "clone",
];

/// `Type::fn` constructors that allocate.
const ALLOC_CTORS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("String", "from"),
    ("Box", "new"),
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Casts to these targets can silently truncate (usize/u128 are exempt:
/// node ids and packed keys legitimately narrow *to* them).
const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64"];

/// Keywords whose following `[` opens a slice pattern / attribute /
/// array type, not an index expression.
const NOT_INDEX_PREV: &[&str] = &[
    "let", "in", "return", "if", "while", "match", "else", "move", "mut", "ref", "for", "as",
    "break", "continue", "box", "static", "const",
];

/// Hot-path hygiene inside `// lint:hot` regions: no heap allocation,
/// no truncating `as` casts, no compound index expressions. Simple
/// indices (`xs[i]`, `xs[i as usize]`, `xs[3]`, ranges) pass — they are
/// the loop-bound accesses the kernels are built from; anything computed
/// (`offsets[u + 1]`) must be hoisted or allow-listed with a note.
fn hot_path(file: &SourceFile, out: &mut Vec<Finding>) {
    let t = &file.tokens;
    if file.tree.blocks.iter().all(|b| !b.hot) {
        return;
    }
    let mut flag = |tok: usize, what: String| {
        let ln = line_of(t, tok);
        if masked(file, tok) || file.allowed("hot-path", ln) {
            return;
        }
        out.push(Finding::new("hot-path", file.path.clone(), ln, what).with_col(col_of(t, tok)));
    };
    for b in file.tree.blocks.iter().filter(|b| b.hot && b.closure) {
        flag(
            b.open,
            "`// lint:hot` binds to this closure's body alone, not to the loop or fn \
             around it; put the marker above the `fn`"
                .to_string(),
        );
    }
    for i in 0..t.toks.len() {
        if !file.tree.in_hot(i) {
            continue;
        }
        match t.toks[i].kind {
            TokKind::Ident => {
                let w = t.text_of(i);
                // `.push(…)` and friends.
                if ALLOC_METHODS.contains(&w) && method_call(t, i, w).is_some() {
                    flag(
                        i,
                        format!(
                            "`.{w}(…)` allocates (or may reallocate) in a hot region; \
                             pre-reserve outside the region or restructure"
                        ),
                    );
                    continue;
                }
                // `Vec::new()` and friends.
                if let Some((ty, _)) = ALLOC_CTORS.iter().find(|(ty, f)| {
                    *ty == w
                        && t.next_code(i + 1).is_some_and(|c| t.is_punct(c, "::"))
                        && t.next_code(i + 1)
                            .and_then(|c| t.next_code(c + 1))
                            .is_some_and(|n| t.is_ident(n, f))
                }) {
                    flag(
                        i,
                        format!("`{ty}::…` constructs a heap container in a hot region"),
                    );
                    continue;
                }
                // `vec![…]` / `format!(…)`.
                if ALLOC_MACROS.contains(&w)
                    && t.next_code(i + 1).is_some_and(|b| t.is_punct(b, "!"))
                {
                    flag(i, format!("`{w}!` allocates in a hot region"));
                    continue;
                }
                // `as u32` and other narrowing casts.
                if w == "as" {
                    if let Some(ty) = t
                        .next_code(i + 1)
                        .filter(|&n| t.toks[n].kind == TokKind::Ident)
                        .map(|n| t.text_of(n))
                    {
                        if NARROW_CASTS.contains(&ty) {
                            flag(
                                i,
                                format!(
                                    "`as {ty}` can silently truncate in a hot region; \
                                     prove the range (debug_assert + allow note) or use \
                                     try_into outside the region"
                                ),
                            );
                        }
                    }
                    continue;
                }
            }
            TokKind::Punct if t.text_of(i) == "[" => {
                // Index expression: previous code token is a value end.
                let Some(p) = t.prev_code(i) else { continue };
                let is_value_end = match t.toks[p].kind {
                    TokKind::Ident => !NOT_INDEX_PREV.contains(&t.text_of(p)),
                    TokKind::Punct => matches!(t.text_of(p), ")" | "]"),
                    _ => false,
                };
                if !is_value_end {
                    continue;
                }
                let Some(close) = t.matching_close(i) else {
                    continue;
                };
                if !simple_index(t, i, close) {
                    flag(
                        i,
                        "compound index expression in a hot region; hoist it into a \
                         named local with a bounds proof, or use a range"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Whether the index expression between `open` and `close` is simple:
/// a lone identifier, a lone integer literal, `ident as usize`, or any
/// range (`..` present).
fn simple_index(t: &Tokens, open: usize, close: usize) -> bool {
    let inner: Vec<usize> = ((open + 1)..close)
        .filter(|&k| !matches!(t.toks[k].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    // Ranges pass: two adjacent `.` puncts anywhere inside.
    for w in inner.windows(2) {
        if t.is_punct(w[0], ".") && t.is_punct(w[1], ".") {
            return true;
        }
    }
    match inner.as_slice() {
        [a] => matches!(t.toks[*a].kind, TokKind::Ident | TokKind::Num),
        [a, b, c] => {
            t.toks[*a].kind == TokKind::Ident && t.is_ident(*b, "as") && t.is_ident(*c, "usize")
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// debug-invariants
// ---------------------------------------------------------------------------

/// The `debug_assert!` family.
const DEBUG_ASSERTS: &[&str] = &["debug_assert", "debug_assert_eq", "debug_assert_ne"];

/// Every `debug_assert!` in a hot region of `file` that is neither in a
/// test nor allowed, as `(token, line, enclosing fn)`.
fn hot_asserts(file: &SourceFile) -> Vec<(usize, usize, String)> {
    let t = &file.tokens;
    if file.tree.blocks.iter().all(|b| !b.hot) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..t.toks.len() {
        if !(t.toks[i].kind == TokKind::Ident && DEBUG_ASSERTS.contains(&t.text_of(i))) {
            continue;
        }
        if !t.next_code(i + 1).is_some_and(|b| t.is_punct(b, "!")) {
            continue;
        }
        if !file.tree.in_hot(i) || masked(file, i) {
            continue;
        }
        let ln = line_of(t, i);
        if file.allowed("debug-invariants", ln) {
            continue;
        }
        let func = file.tree.enclosing_fn(i).unwrap_or("<file>").to_string();
        out.push((i, ln, func));
    }
    out
}

/// Debug-invariant drift: a `debug_assert!` inside a hot region states
/// an invariant the release build silently stops checking — so it must
/// have a release-mode test registered in `crates/lint/lint-invariants.txt`
/// (`<path>:<fn> <test-path>` per line) that pins the same property.
fn debug_invariants(ws: &Workspace, file: &SourceFile, out: &mut Vec<Finding>) {
    let t = &file.tokens;
    for (i, ln, func) in hot_asserts(file) {
        let entry = ws
            .invariants
            .iter()
            .find(|e| e.path == file.path && e.func == func);
        match entry {
            None => out.push(
                Finding::new(
                    "debug-invariants",
                    file.path.clone(),
                    ln,
                    format!(
                        "`{}!` in hot fn `{func}` has no release-mode test registered; \
                         add `{}:{func} <test-path>` to crates/lint/lint-invariants.txt",
                        t.text_of(i),
                        file.path
                    ),
                )
                .with_col(col_of(t, i)),
            ),
            Some(e) if !ws.root.join(&e.test).is_file() => out.push(
                Finding::new(
                    "debug-invariants",
                    file.path.clone(),
                    ln,
                    format!(
                        "invariant manifest points `{func}` at `{}`, which does not exist",
                        e.test
                    ),
                )
                .with_col(col_of(t, i)),
            ),
            Some(_) => {}
        }
    }
}

/// Flags manifest entries whose source location no longer has a hot
/// `debug_assert!`: the file is not scanned, or no fn of that name in it
/// encloses one. So the manifest cannot rot silently.
fn stale_invariant_entries(ws: &Workspace, out: &mut Vec<Finding>) {
    for e in &ws.invariants {
        let file = ws
            .crates
            .iter()
            .flat_map(|c| c.files.iter())
            .find(|f| f.path == e.path);
        let message = match file {
            None => format!(
                "stale manifest entry: `{}` is not a scanned source file",
                e.path
            ),
            Some(f) if !hot_asserts(f).iter().any(|(_, _, func)| *func == e.func) => format!(
                "stale manifest entry: no fn `{}` in `{}` encloses a hot `debug_assert!`",
                e.func, e.path
            ),
            Some(_) => continue,
        };
        out.push(Finding::new(
            "debug-invariants",
            "crates/lint/lint-invariants.txt".to_string(),
            e.line,
            message,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_walks_field_chains_and_index_groups() {
        let t = Tokens::lex("self.hits.load(x); recs[v].dist.store(y); NEXT.fetch_add(1);");
        let dot_before = |word: &str| {
            let i = (0..t.toks.len()).find(|&i| t.is_ident(i, word)).unwrap();
            t.prev_code(i).unwrap()
        };
        assert_eq!(
            receiver_ident(&t, dot_before("load")).as_deref(),
            Some("hits")
        );
        assert_eq!(
            receiver_ident(&t, dot_before("store")).as_deref(),
            Some("dist")
        );
        assert_eq!(
            receiver_ident(&t, dot_before("fetch_add")).as_deref(),
            Some("NEXT")
        );
    }

    #[test]
    fn simple_indices_pass_compound_fail() {
        let check = |src: &str| {
            let t = Tokens::lex(src);
            let open = (0..t.toks.len()).find(|&i| t.is_punct(i, "[")).unwrap();
            let close = t.matching_close(open).unwrap();
            simple_index(&t, open, close)
        };
        assert!(check("xs[i]"));
        assert!(check("xs[3]"));
        assert!(check("xs[u as usize]"));
        assert!(check("xs[lo..hi]"));
        assert!(check("xs[..]"));
        assert!(!check("xs[u + 1]"));
        assert!(!check("xs[self.k]"));
        assert!(!check("xs[f(i)]"));
    }

    #[test]
    fn chain_detection_allows_unwrap_only() {
        let ends = |src: &str| {
            let t = Tokens::lex(src);
            let i = (0..t.toks.len()).find(|&i| t.is_ident(i, "lock")).unwrap();
            let open = t.next_code(i + 1).unwrap();
            let close = t.matching_close(open).unwrap();
            chain_ends_in_guard(&t, close)
        };
        assert!(ends("let _ = m.lock();"));
        assert!(ends("let _ = m.lock().unwrap();"));
        assert!(ends("let _ = m.lock().expect(\"invariant: x\");"));
        assert!(!ends("let _ = m.lock().unwrap().flush();"));
    }

    #[test]
    fn let_binding_extracts_names_and_underscore() {
        let bind = |src: &str| {
            let t = Tokens::lex(src);
            let_binding(&t, 0)
        };
        assert_eq!(bind("let g = m.lock();"), Some(("g".into(), false)));
        assert_eq!(bind("let mut g = m.lock();"), Some(("g".into(), false)));
        assert_eq!(bind("let Ok(g) = m.lock();"), Some(("g".into(), false)));
        assert_eq!(bind("let _ = m.lock();"), Some(("_".into(), false)));
        assert_eq!(
            bind("if let Some(t) = m.lock().get(k) { use_it(t); }"),
            Some(("t".into(), true))
        );
        assert_eq!(bind("g.lock();"), None);
    }
}
