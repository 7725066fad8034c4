//! Brace-block tree over a token stream.
//!
//! Every `{ … }` in a file becomes a [`Block`] with its parent, the name
//! of the `fn` whose body it is (if any), the `for`-loop variables bound
//! over it, and two region flags the rules care about:
//!
//! * **test** — the block is the item under a `#[cfg(test)]` attribute
//!   (v1 rules exempt test code);
//! * **hot** — the block follows a `// lint:hot` marker comment. Hot
//!   regions carry the strictest discipline in the workspace: no heap
//!   allocation, no possibly-truncating casts, no compound index
//!   expressions, and every `debug_assert!` must be backed by a
//!   release-mode test registered in `crates/lint/lint-invariants.txt`
//!   (see [`crate::rules2`]).
//!
//! The marker binds to the next `{` block opened after it: put
//! `// lint:hot` directly above a `fn` to mark its whole body, or above
//! a `while`/`loop`/`for` line to mark just that loop. A marker whose
//! block is a closure body (`q.pop(|v| { … })` in a loop head) marks
//! that closure alone, so the `hot-path` rule reports it.

use crate::token::{TokKind, Tokens};

/// One brace block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Token index of the opening `{`.
    pub open: usize,
    /// Token index of the closing `}` (or one past the last token for
    /// an unterminated block).
    pub close: usize,
    /// Index into [`FileTree::blocks`] of the enclosing block.
    pub parent: Option<usize>,
    /// Name of the function whose body this block is.
    pub fn_name: Option<String>,
    /// Opened under a `// lint:hot` marker.
    pub hot: bool,
    /// The body of a closure: the `{` directly follows its `|…|`.
    pub closure: bool,
    /// The item block of a `#[cfg(test)]` attribute.
    pub test: bool,
    /// 1-based line of the `#[cfg(test)]` attribute, when `test`.
    pub test_attr_line: u32,
    /// `for`-pattern identifiers bound over this block.
    pub loop_vars: Vec<String>,
}

/// The block tree of one file plus the test regions that have no block
/// (`#[cfg(test)] use …;`).
#[derive(Debug, Clone, Default)]
pub struct FileTree {
    /// All blocks, in opening order.
    pub blocks: Vec<Block>,
    /// Extra `(first_line, last_line)` test ranges from brace-less
    /// `#[cfg(test)]` items.
    pub braceless_test_lines: Vec<(u32, u32)>,
}

impl FileTree {
    /// Builds the tree for `t`.
    pub fn build(t: &Tokens) -> FileTree {
        let mut blocks: Vec<Block> = Vec::new();
        let mut braceless = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        let mut pending_fn: Option<String> = None;
        let mut pending_hot = false;
        let mut pending_test: Option<u32> = None;
        let mut pending_for: Vec<String> = Vec::new();
        // Depth inside `(…)` / `[…]` groups: a `;` only terminates an
        // item (clearing the pendings) at group depth 0.
        let mut group_depth = 0i64;
        let mut i = 0;
        while i < t.toks.len() {
            let kind = t.toks[i].kind;
            let text = t.text_of(i);
            match kind {
                // The marker must *lead* the comment (`// lint:hot`,
                // `// lint:hot: settle loop`) — prose that merely
                // mentions the marker is not one.
                TokKind::LineComment | TokKind::BlockComment
                    if text
                        .trim_start_matches(['/', '*', '!', ' ', '\t'])
                        .starts_with("lint:hot") =>
                {
                    pending_hot = true;
                }
                TokKind::Ident if text == "fn" => {
                    if let Some(j) = t.next_code(i + 1) {
                        if t.toks[j].kind == TokKind::Ident {
                            pending_fn = Some(t.text_of(j).to_string());
                        }
                    }
                }
                TokKind::Ident if text == "for" => {
                    // Collect the pattern idents of `for <pat> in …`;
                    // bounded so a stray `for` cannot scan the file.
                    let mut vars = Vec::new();
                    let mut j = i + 1;
                    let mut steps = 0;
                    while let Some(k) = t.next_code(j) {
                        steps += 1;
                        if steps > 16 || t.is_punct(k, "{") || t.is_punct(k, ";") {
                            vars.clear();
                            break;
                        }
                        if t.is_ident(k, "in") {
                            break;
                        }
                        if t.toks[k].kind == TokKind::Ident {
                            vars.push(t.text_of(k).to_string());
                        }
                        j = k + 1;
                    }
                    if !vars.is_empty() {
                        pending_for = vars;
                    }
                }
                TokKind::Punct if text == "#" => {
                    // Attribute: scan the `[…]` group for cfg(test).
                    if let Some(open) = t.next_code(i + 1).filter(|&k| t.is_punct(k, "[")) {
                        if let Some(close) = t.matching_close(open) {
                            let mut is_cfg = false;
                            let mut has_test = false;
                            for k in open..close {
                                if t.is_ident(k, "cfg") {
                                    is_cfg = true;
                                }
                                if t.is_ident(k, "test") && is_cfg {
                                    has_test = true;
                                }
                            }
                            if has_test {
                                pending_test = Some(t.toks[i].line);
                            }
                            i = close + 1;
                            continue;
                        }
                    }
                }
                TokKind::Punct => match text {
                    "(" | "[" => group_depth += 1,
                    ")" | "]" => group_depth -= 1,
                    "{" => {
                        let idx = blocks.len();
                        blocks.push(Block {
                            open: i,
                            close: t.toks.len(),
                            parent: stack.last().copied(),
                            fn_name: pending_fn.take(),
                            hot: std::mem::take(&mut pending_hot),
                            closure: t.prev_code(i).is_some_and(|p| t.is_punct(p, "|")),
                            test: pending_test.is_some(),
                            test_attr_line: pending_test.take().unwrap_or(0),
                            loop_vars: std::mem::take(&mut pending_for),
                        });
                        stack.push(idx);
                    }
                    "}" => {
                        if let Some(idx) = stack.pop() {
                            blocks[idx].close = i;
                        }
                    }
                    ";" if group_depth == 0 => {
                        pending_fn = None;
                        pending_hot = false;
                        pending_for.clear();
                        if let Some(attr_line) = pending_test.take() {
                            braceless.push((attr_line, t.toks[i].line));
                        }
                    }
                    _ => {}
                },
                _ => {}
            }
            i += 1;
        }
        FileTree {
            blocks,
            braceless_test_lines: braceless,
        }
    }

    /// Index of the innermost block containing token `tok`.
    pub fn block_at(&self, tok: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, b) in self.blocks.iter().enumerate() {
            if b.open < tok && tok < b.close {
                match best {
                    Some(prev) if self.blocks[prev].open >= b.open => {}
                    _ => best = Some(i),
                }
            }
        }
        best
    }

    /// Walks `block` and its ancestors looking for `pred`.
    fn ancestor<F: Fn(&Block) -> bool>(&self, mut block: Option<usize>, pred: F) -> Option<usize> {
        while let Some(i) = block {
            if pred(&self.blocks[i]) {
                return Some(i);
            }
            block = self.blocks[i].parent;
        }
        None
    }

    /// Whether token `tok` sits inside a hot region.
    pub fn in_hot(&self, tok: usize) -> bool {
        self.ancestor(self.block_at(tok), |b| b.hot).is_some()
    }

    /// Whether token `tok` sits inside a `#[cfg(test)]` item.
    pub fn in_test(&self, tok: usize) -> bool {
        self.ancestor(self.block_at(tok), |b| b.test).is_some()
    }

    /// Name of the innermost named function enclosing token `tok`.
    pub fn enclosing_fn(&self, tok: usize) -> Option<&str> {
        self.ancestor(self.block_at(tok), |b| b.fn_name.is_some())
            .and_then(|i| self.blocks[i].fn_name.as_deref())
    }

    /// Whether `ident` is a `for`-loop variable of any block enclosing
    /// token `tok`.
    pub fn is_loop_var(&self, tok: usize, ident: &str) -> bool {
        self.ancestor(self.block_at(tok), |b| {
            b.loop_vars.iter().any(|v| v == ident)
        })
        .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(src: &str) -> (Tokens, FileTree) {
        let t = Tokens::lex(src);
        let ft = FileTree::build(&t);
        (t, ft)
    }

    #[test]
    fn fn_names_attach_to_bodies() {
        let (t, ft) = tree("fn alpha() { inner(); }\nfn beta() { { nested } }");
        let at = |word: &str| (0..t.toks.len()).find(|&i| t.text_of(i) == word).unwrap();
        assert_eq!(ft.enclosing_fn(at("inner")), Some("alpha"));
        assert_eq!(ft.enclosing_fn(at("nested")), Some("beta"));
    }

    #[test]
    fn hot_marker_binds_to_next_block() {
        let src = "fn cold() { a(); }\n// lint:hot\nfn hot() { b(); while x { c(); } }\nfn cold2() { d(); }";
        let (t, ft) = tree(src);
        let at = |word: &str| (0..t.toks.len()).find(|&i| t.text_of(i) == word).unwrap();
        assert!(!ft.in_hot(at("a")));
        assert!(ft.in_hot(at("b")));
        assert!(ft.in_hot(at("c")), "nested blocks inherit hot");
        assert!(!ft.in_hot(at("d")));
    }

    #[test]
    fn hot_marker_above_a_closure_in_a_loop_head_binds_to_the_closure() {
        let src = "fn f() {\n// lint:hot\nwhile let Some(x) = q.pop(|v| { v > 0 }) { step(x); }\n}";
        let (t, ft) = tree(src);
        let at = |word: &str| (0..t.toks.len()).find(|&i| t.text_of(i) == word).unwrap();
        assert!(!ft.in_hot(at("step")), "the loop body is not hot");
        let hot: Vec<&Block> = ft.blocks.iter().filter(|b| b.hot).collect();
        assert_eq!(hot.len(), 1);
        assert!(hot[0].closure);
        assert!(ft.blocks.iter().filter(|b| !b.hot).all(|b| !b.closure));
    }

    #[test]
    fn hot_marker_on_a_loop_marks_only_the_loop() {
        let src = "fn f() { setup(); /* lint:hot */ while go { step(); } teardown(); }";
        let (t, ft) = tree(src);
        let at = |word: &str| (0..t.toks.len()).find(|&i| t.text_of(i) == word).unwrap();
        assert!(!ft.in_hot(at("setup")));
        assert!(ft.in_hot(at("step")));
        assert!(!ft.in_hot(at("teardown")));
    }

    #[test]
    fn cfg_test_blocks_and_braceless_items() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x(); } }\n#[cfg(test)]\nuse foo::bar;\nfn live2() { y(); }";
        let (t, ft) = tree(src);
        let at = |word: &str| (0..t.toks.len()).find(|&i| t.text_of(i) == word).unwrap();
        assert!(ft.in_test(at("x")));
        assert!(!ft.in_test(at("y")));
        assert_eq!(ft.braceless_test_lines, vec![(4, 5)]);
    }

    #[test]
    fn loop_vars_cover_tuple_patterns() {
        let src = "fn f() { for (i, v) in xs.iter().enumerate() { use_it(); } after(); }";
        let (t, ft) = tree(src);
        let at = |word: &str| (0..t.toks.len()).find(|&i| t.text_of(i) == word).unwrap();
        assert!(ft.is_loop_var(at("use_it"), "i"));
        assert!(ft.is_loop_var(at("use_it"), "v"));
        assert!(!ft.is_loop_var(at("use_it"), "xs"));
        assert!(!ft.is_loop_var(at("after"), "i"));
    }

    #[test]
    fn semicolon_inside_array_type_keeps_pending_fn() {
        let (t, ft) = tree("fn g(x: [u8; 4]) { body(); }");
        let at = |word: &str| (0..t.toks.len()).find(|&i| t.text_of(i) == word).unwrap();
        assert_eq!(ft.enclosing_fn(at("body")), Some("g"));
    }
}
