//! The contract lint (DESIGN.md §13).
//!
//! The paper's two claims — wait-freedom (Thm. 5.9) and a correctness
//! argument made in an SC model — are made line-by-line accountable by
//! three contracts, each stated **beside the code** as a comment this
//! tool reads:
//!
//! * `// ORDERING: <why>` covers the syntactic extent of the code line it
//!   sits above — one statement, or a whole `fn`/`impl`/`mod`/`trait`
//!   body; `//! ORDERING: <why>` covers the file. The innermost
//!   annotation wins. Every atomic op and fence that names an `Ordering`
//!   must be covered by a non-empty one: `SeqCst` is the expensive
//!   default and keeping it is an argued decision, and a weaker ordering
//!   names the pairing that makes it enough.
//! * `// BOUND: <class> — <why>` sits adjacent to every `loop` / `while`
//!   / `while let` head (in the contiguous comment block above it, or
//!   trailing on its line). The class must be one of [`BOUND_CLASSES`];
//!   [`WAIT_EDGE`] — the one class that declares a loop intentionally
//!   unbounded — must carry a why.
//! * `// SAFETY:` (or a `# Safety` doc section on an `unsafe fn`) sits
//!   adjacent to every `unsafe` block, fn, impl and trait, and every
//!   unsafe-bearing crate root declares [`DENY_ATTR`].
//!
//! A fourth check keeps the prose honest: every `DESIGN.md §n(.m)` /
//! `DESIGN §n` citation under [`CITING_DIRS`] and in [`CITING_FILES`]
//! must name a numbered heading of `DESIGN.md` ([`check_citations`]).
//!
//! # Bound-class taxonomy
//!
//! | class | meaning |
//! |---|---|
//! | `const` | iteration count is a compile-time or configured constant (patience, spin budgets, `TAG` wrap) |
//! | `capacity` | bounded by a queue/ring/buffer capacity or an input's length |
//! | `threshold` | bounded by the §3.2 threshold argument: the counter strictly decreases or the loop exits |
//! | `helping-bounded` | bounded by the §3.4 helping protocol: a stalled op is finished by helpers within a bounded number of passes |
//! | `retry-budget` | bounded by an explicit retry/attempt budget that is checked each round |
//! | `finite-iter` | drains a finite collection/iterator/range that no concurrent actor refills |
//! | `wait-edge` | intentionally unbounded wait on an external event (park/yield edges, lock-free retries, test barriers) — why mandatory |
//!
//! The scanner is deliberately textual: zero dependencies, no macro
//! expansion, no cfg evaluation — so every branch of cfg-gated code (both
//! DWCAS backends, the `wcq_dst` seam) is audited in one pass. One lexer
//! ([`lex`]) splits each file into its code and its comments; the three
//! passes search the code (so prose and string literals can never be
//! sites) and read the contracts out of the comments. Nothing is keyed on
//! a line number, so moving code moves its contract with it. Blind spots,
//! by construction: an atomic op whose ordering is a variable rather than
//! a literal `Ordering::*` token, and `for` loops (finite by
//! construction). The workspace has no site of the first kind; keep it
//! that way.

use std::path::{Path, PathBuf};

/// The recognized bound classes (see the module docs for semantics).
pub const BOUND_CLASSES: &[&str] = &[
    "capacity",
    "const",
    "finite-iter",
    "helping-bounded",
    "retry-budget",
    "threshold",
    "wait-edge",
];

/// The one class that declares a loop intentionally unbounded.
pub const WAIT_EDGE: &str = "wait-edge";

/// The crate-root attribute every unsafe-bearing crate must declare.
pub const DENY_ATTR: &str = "#![deny(unsafe_op_in_unsafe_fn)]";

/// Atomic method names the ordering pass recognizes (matched as `.name(`).
const OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange_weak",
    "compare_exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

const ORDERING_TOKENS: &[&str] = &["SeqCst", "AcqRel", "Acquire", "Release", "Relaxed"];

/// Longest argument list (in bytes) the ordering pass walks looking for
/// the closing paren.
const MAX_CALL_SPAN: usize = 2000;

/// Words that start a contract comment; a note's continuation lines stop
/// at the next one.
const MARKERS: &[&str] = &["ORDERING:", "BOUND:", "SAFETY", "# Safety"];

/// Which contract a site answers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    Ordering,
    Progress,
    Unsafety,
}

/// One discovered site with the contract text that covers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    pub pass: Pass,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line of the site's token (diagnostics only).
    pub line: usize,
    /// What the site is: `"load(Acquire)"`, `"while-let"`,
    /// `"unsafe(block)"`.
    pub sig: String,
    /// The text after the covering annotation's marker, continuation
    /// lines joined; `None` when no annotation covers the site.
    pub note: Option<String>,
}

impl Site {
    /// Splits a `BOUND` note into its class and its why.
    pub fn bound(&self) -> (&str, &str) {
        let note = self.note.as_deref().unwrap_or("").trim();
        let (class, why) = note.split_once(char::is_whitespace).unwrap_or((note, ""));
        (class, why.trim_start_matches(['—', '-', ':', ' ']))
    }
}

/// `true` for text that does not count as an argument.
fn is_placeholder(why: &str) -> bool {
    let w = why.trim();
    w.is_empty() || w == "-" || w.eq_ignore_ascii_case("todo")
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

// ===================================================================
// Lexing: the one classifier all three passes share
// ===================================================================

/// Splits `text` into `(code, comments)`, each as long as `text` with the
/// other's bytes (and, in both, string and char literals) blanked to
/// spaces, newlines kept — so offsets and lines agree across all three.
/// Comments are `//` to end of line wherever it starts outside a string,
/// and (nested) `/* … */` spans.
pub fn lex(text: &str) -> (String, String) {
    let b = text.as_bytes();
    let mut code = b.to_vec();
    let mut comments = vec![b' '; b.len()];
    let mut i = 0;
    while i < b.len() {
        let start = i;
        let mut comment = false;
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                comment = true;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                comment = true;
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i..].starts_with(b"/*") {
                        depth += 1;
                        i += 2;
                    } else if b[i..].starts_with(b"*/") {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => i = string_end(b, i + 1),
            b'r' if start == 0 || !is_ident(b[start - 1]) || raw_prefix_b(b, start) => {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                if b.get(i + 1 + hashes) != Some(&b'"') {
                    i += 1; // an identifier (or raw identifier) starting with `r`
                    continue;
                }
                i += 2 + hashes;
                while i < b.len()
                    && !(b[i] == b'"' && b[i + 1..].iter().take(hashes).all(|&c| c == b'#'))
                {
                    i += 1;
                }
                i = (i + 1 + hashes).min(b.len());
            }
            b'\'' => match char_literal_end(b, i) {
                Some(end) => i = end,
                None => {
                    i += 1; // a lifetime
                    continue;
                }
            },
            _ => {
                i += 1;
                continue;
            }
        }
        for j in start..i {
            if b[j] != b'\n' {
                code[j] = b' ';
                if comment {
                    comments[j] = b[j];
                }
            }
        }
    }
    // Blanked regions start and end on ASCII delimiters, so both buffers
    // are still valid UTF-8.
    let utf8 = |v| String::from_utf8(v).expect("blanking keeps UTF-8 boundaries");
    (utf8(code), utf8(comments))
}

/// Whether the `r` at `at` follows a byte-string `b` prefix (`br"…"`).
fn raw_prefix_b(b: &[u8], at: usize) -> bool {
    b[at - 1] == b'b' && (at < 2 || !is_ident(b[at - 2]))
}

/// Offset just past the `"` closing the string whose body starts at `i`.
fn string_end(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && b[i] != b'"' {
        i += if b[i] == b'\\' { 2 } else { 1 };
    }
    (i + 1).min(b.len())
}

/// Offset just past the char literal opening at `i`, or `None` if the
/// quote starts a lifetime.
fn char_literal_end(b: &[u8], i: usize) -> Option<usize> {
    let next = *b.get(i + 1)?;
    if next == b'\\' {
        let close = b[i + 3..].iter().position(|&c| c == b'\'')?;
        return Some(i + 3 + close + 1);
    }
    let width = match next {
        0..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    };
    (b.get(i + 1 + width) == Some(&b'\'')).then_some(i + 2 + width)
}

/// One file, lexed and line-indexed.
struct Source<'a> {
    file: &'a str,
    code: String,
    comments: String,
    /// Byte offset of each line's first byte.
    starts: Vec<usize>,
}

impl<'a> Source<'a> {
    fn new(file: &'a str, text: &str) -> Self {
        let (code, comments) = lex(text);
        let starts = std::iter::once(0)
            .chain(text.match_indices('\n').map(|(i, _)| i + 1))
            .collect();
        Source {
            file,
            code,
            comments,
            starts,
        }
    }

    /// 1-based line number of byte offset `off`.
    fn line_of(&self, off: usize) -> usize {
        self.starts.partition_point(|&s| s <= off)
    }

    /// 1-based `line` of `text` (one of `self.code` / `self.comments`).
    fn line<'t>(&self, text: &'t str, line: usize) -> &'t str {
        let end = self.starts.get(line).map_or(text.len(), |&e| e - 1);
        &text[self.starts[line - 1]..end]
    }

    fn lines(&self) -> usize {
        self.starts.len()
    }

    /// Whether `line` holds a comment and no code.
    fn is_comment_line(&self, line: usize) -> bool {
        self.line(&self.code, line).trim().is_empty()
            && !self.line(&self.comments, line).trim().is_empty()
    }

    /// The contract text `line`'s comment carries after one of `markers`:
    /// the rest of that line plus the comment-only lines continuing it,
    /// up to a blank comment line or the next marker.
    fn note_on(&self, line: usize, markers: &[&str]) -> Option<String> {
        let comment = self.line(&self.comments, line);
        let (at, marker) = markers
            .iter()
            .find_map(|m| comment.find(m).map(|at| (at, m)))?;
        let mut note = comment[at + marker.len()..]
            .trim_start_matches(':')
            .trim()
            .to_string();
        for next in line + 1..=self.lines() {
            let more = self
                .line(&self.comments, next)
                .trim_start()
                .trim_start_matches(['/', '!', '*'])
                .trim();
            if !self.is_comment_line(next)
                || more.is_empty()
                || MARKERS.iter().any(|m| more.contains(m))
            {
                break;
            }
            note.push(' ');
            note.push_str(more);
        }
        Some(note)
    }

    /// The contract comment adjacent to the site on `line`: trailing on
    /// the line itself, or in the contiguous run of comment and attribute
    /// lines directly above it. The upward walk also steps over `unsafe
    /// impl` lines: a stacked `Send`/`Sync` pair argues one invariant.
    fn adjacent(&self, line: usize, markers: &[&str]) -> Option<String> {
        if let Some(note) = self.note_on(line, markers) {
            return Some(note);
        }
        for above in (1..line).rev() {
            let code = self.line(&self.code, above).trim_start();
            if self.is_comment_line(above) {
                if let Some(note) = self.note_on(above, markers) {
                    return Some(note);
                }
            } else if !["#[", "#!", "unsafe impl"]
                .iter()
                .any(|p| code.starts_with(p))
            {
                break;
            }
        }
        None
    }

    fn site(&self, pass: Pass, at: usize, sig: String, note: Option<String>) -> (usize, Site) {
        let site = Site {
            pass,
            file: self.file.to_string(),
            line: self.line_of(at),
            sig,
            note,
        };
        (at, site)
    }
}

// ===================================================================
// The three passes
// ===================================================================

/// An `ORDERING` annotation and the byte range of code it covers.
struct Scope {
    start: usize,
    end: usize,
    why: String,
}

/// Whether a code line opens an item whose whole body an annotation above
/// it covers (`fn` / `impl` / `mod` / `trait`, behind any qualifiers).
fn opens_item(line: &str) -> bool {
    for word in line.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        match word {
            "" | "pub" | "crate" | "super" | "in" | "unsafe" | "const" | "async" | "extern"
            | "default" => continue,
            "fn" | "impl" | "mod" | "trait" => return true,
            _ => return false,
        }
    }
    false
}

/// End (exclusive) of the syntactic extent that starts at `start`: an
/// item runs to the `}` closing its body (or the `;` of a bodiless
/// declaration); a statement runs to its `;`, to the `,` ending a match
/// arm or field, to the `}` closing its trailing block (carrying on
/// through `else`, `.method()` and `?`), or to where its enclosing block
/// closes.
fn extent_end(code: &str, start: usize) -> usize {
    let b = code.as_bytes();
    let item = opens_item(code[start..].lines().next().unwrap_or(""));
    let mut depth = 0usize;
    for i in start..b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
                let rest = code[i + 1..].trim_start();
                let chained = [".", "?", "else"].iter().any(|p| rest.starts_with(p));
                if depth == 0 && b[i] == b'}' && (item || !chained) {
                    return i + 1;
                }
            }
            b';' if depth == 0 => return i + 1,
            b',' if depth == 0 && !item => return i + 1,
            _ => {}
        }
    }
    b.len()
}

fn ordering_scopes(src: &Source) -> Vec<Scope> {
    let mut scopes = Vec::new();
    for line in 1..=src.lines() {
        if !src.is_comment_line(line) {
            continue;
        }
        let Some(why) = src.note_on(line, &["ORDERING:"]) else {
            continue;
        };
        if src
            .line(&src.comments, line)
            .trim_start()
            .starts_with("//!")
        {
            scopes.push(Scope {
                start: 0,
                end: src.code.len(),
                why,
            });
            continue;
        }
        // The code line the annotation sits above: past the rest of its
        // comment block and any attributes.
        let anchor = (line + 1..=src.lines()).find(|&l| {
            let code = src.line(&src.code, l).trim_start();
            !code.is_empty() && !code.starts_with("#[") && !code.starts_with("#!")
        });
        if let Some(anchor) = anchor {
            let start = src.starts[anchor - 1];
            scopes.push(Scope {
                start,
                end: extent_end(&src.code, start),
                why,
            });
        }
    }
    scopes
}

fn ordering_pass(src: &Source, out: &mut Vec<(usize, Site)>) {
    let scopes = ordering_scopes(src);
    let b = src.code.as_bytes();
    let needles = OPS
        .iter()
        .map(|op| (format!(".{op}("), *op))
        .chain([("fence(".to_string(), "fence")]);
    for (needle, op) in needles {
        for (at, _) in src.code.match_indices(&needle) {
            // Word boundaries: `.load(` must not be the tail of
            // `.payload(`, nor `fence(` of another identifier. The
            // literal `(` keeps `.compare_exchange(` out of `_weak(`.
            let tok = if op == "fence" { at } else { at + 1 };
            if tok > 0 && is_ident(b[tok - 1]) {
                continue;
            }
            let open = at + needle.len() - 1;
            let Some(close) = call_span(&src.code, open) else {
                continue;
            };
            let orderings = word_tokens_in(&src.code[open + 1..close], ORDERING_TOKENS);
            if orderings.is_empty() {
                continue; // `Vec::swap`, shim plumbing: not an atomic op
            }
            let why = scopes
                .iter()
                .filter(|s| s.start <= at && at < s.end)
                .min_by_key(|s| s.end - s.start)
                .map(|s| s.why.clone());
            let sig = format!("{op}({})", orderings.join(", "));
            out.push(src.site(Pass::Ordering, at, sig, why));
        }
    }
}

/// Byte offset of the `)` closing the call whose `(` is at `open`.
fn call_span(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, b) in code.bytes().enumerate().skip(open).take(MAX_CALL_SPAN) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Byte offsets of the whole-word occurrences of `word` in `text`.
fn whole_words<'t>(text: &'t str, word: &'t str) -> impl Iterator<Item = usize> + 't {
    let b = text.as_bytes();
    text.match_indices(word)
        .map(|(at, _)| at)
        .filter(move |&at| {
            (at == 0 || !is_ident(b[at - 1]))
                && b.get(at + word.len()).is_none_or(|&c| !is_ident(c))
        })
}

/// Occurrences of `tokens` appearing as whole words in `span`, in order.
fn word_tokens_in<'t>(span: &str, tokens: &[&'t str]) -> Vec<&'t str> {
    let mut found: Vec<(usize, &'t str)> = tokens
        .iter()
        .flat_map(|tok| whole_words(span, tok).map(move |at| (at, *tok)))
        .collect();
    found.sort_unstable();
    found.into_iter().map(|(_, t)| t).collect()
}

fn progress_pass(src: &Source, out: &mut Vec<(usize, Site)>) {
    let mut push = |at: usize, kind: &str| {
        let note = src.adjacent(src.line_of(at), &["BOUND:"]);
        out.push(src.site(Pass::Progress, at, kind.to_string(), note));
    };
    for at in whole_words(&src.code, "loop") {
        // The keyword is always directly followed by its block.
        if src.code[at + 4..].trim_start().starts_with('{') {
            push(at, "loop");
        }
    }
    for at in whole_words(&src.code, "while") {
        let rest = src.code[at + 5..].trim_start();
        let is_let =
            rest.starts_with("let") && !rest.as_bytes().get(3).copied().is_some_and(is_ident);
        if !rest.is_empty() {
            push(at, if is_let { "while-let" } else { "while" });
        }
    }
}

fn unsafety_pass(src: &Source, out: &mut Vec<(usize, Site)>) {
    for at in whole_words(&src.code, "unsafe") {
        let rest = src.code[at + 6..].trim_start();
        let next_word_is = |w: &str| {
            rest.starts_with(w) && !rest.as_bytes().get(w.len()).copied().is_some_and(is_ident)
        };
        let kind = if next_word_is("fn") {
            // `unsafe fn name(..)` declares; `unsafe fn(..)` is a type.
            if rest[2..].trim_start().starts_with('(') {
                "fn-ptr"
            } else {
                "fn"
            }
        } else if next_word_is("impl") {
            "impl"
        } else if next_word_is("trait") {
            "trait"
        } else {
            "block"
        };
        let note = src.adjacent(src.line_of(at), &["SAFETY", "# Safety"]);
        out.push(src.site(Pass::Unsafety, at, format!("unsafe({kind})"), note));
    }
}

/// Scans one file's text: every atomic, loop and unsafe site in source
/// order, each with the contract text covering it. `file` is the label
/// recorded in the sites.
pub fn scan_source(file: &str, text: &str) -> Vec<Site> {
    let src = Source::new(file, text);
    let mut sites = Vec::new();
    ordering_pass(&src, &mut sites);
    progress_pass(&src, &mut sites);
    unsafety_pass(&src, &mut sites);
    sites.sort_by_key(|&(at, _)| at);
    sites.into_iter().map(|(_, s)| s).collect()
}

// ===================================================================
// Checking a tree
// ===================================================================

/// The verdict on a tree: every site found, and the contract violations
/// as clippy-style messages (empty = clean).
pub struct Report {
    pub sites: Vec<Site>,
    pub errors: Vec<String>,
}

/// Checks `files` — `(workspace-relative path, text)` pairs, as
/// [`load_tree`] returns them.
pub fn check(files: &[(String, String)]) -> Report {
    let sites: Vec<Site> = files
        .iter()
        .flat_map(|(file, text)| scan_source(file, text))
        .collect();
    let mut errors = Vec::new();
    let mut error = |kind: &str, s: &Site, note: String| {
        errors.push(format!(
            "error: {kind}\n  --> {}:{} {}\n  = note: {note}",
            s.file, s.line, s.sig
        ));
    };
    for s in &sites {
        match s.pass {
            Pass::Ordering if is_placeholder(s.note.as_deref().unwrap_or("")) => error(
                "uncovered atomic site",
                s,
                "put `// ORDERING: <why>` above the statement (or the enclosing fn/impl/mod; `//! ORDERING:` for the file) arguing why this ordering is needed and enough".to_string(),
            ),
            Pass::Progress if s.note.is_none() => error(
                "loop without BOUND",
                s,
                format!("put `// BOUND: <class> — <why>` above the loop head; classes: {}", BOUND_CLASSES.join("/")),
            ),
            Pass::Progress if !BOUND_CLASSES.contains(&s.bound().0) => error(
                "unclassified loop",
                s,
                format!("bound class `{}` is not in the taxonomy ({}); an unaudited loop is an unproven progress claim", s.bound().0, BOUND_CLASSES.join("/")),
            ),
            Pass::Progress if s.bound().0 == WAIT_EDGE && is_placeholder(s.bound().1) => error(
                "unjustified wait-edge",
                s,
                "`wait-edge` declares the loop intentionally unbounded — argue why waiting is the intended semantics here".to_string(),
            ),
            // `unsafe fn(..)` pointer types are exempt: no operation
            // happens at a type.
            Pass::Unsafety if s.note.is_none() && s.sig != "unsafe(fn-ptr)" => error(
                "undocumented unsafe site",
                s,
                "add a `// SAFETY:` comment (or a `# Safety` doc section for an `unsafe fn`) directly above the site".to_string(),
            ),
            _ => {}
        }
    }

    // Every crate with an unsafe site denies unsafe ops outside an
    // explicit, commented `unsafe {}` block even inside an `unsafe fn` —
    // the compiler then enforces what this lint cannot see.
    let mut roots: Vec<String> = sites
        .iter()
        .filter(|s| s.pass == Pass::Unsafety)
        .filter_map(|s| {
            let name = s.file.strip_prefix("crates/")?.split('/').next()?;
            Some(format!("crates/{name}/src/lib.rs"))
        })
        .collect();
    roots.sort();
    roots.dedup();
    for root in roots {
        // A bin-only crate has no lib.rs to pin the attribute on.
        if let Some((_, text)) = files.iter().find(|(file, _)| *file == root) {
            if !text.contains("deny(unsafe_op_in_unsafe_fn)") {
                errors.push(format!(
                    "error: missing {DENY_ATTR}\n  --> {root}\n  = note: this crate contains unsafe sites; the attribute makes every unsafe op inside an `unsafe fn` require its own commented `unsafe {{}}` block"
                ));
            }
        }
    }

    errors.sort();
    Report { sites, errors }
}

impl Report {
    /// One inventory line per pass: atomic sites (and how many are
    /// `SeqCst`), loops by bound class, unsafe sites by kind.
    pub fn summary(&self) -> [String; 3] {
        let of = |pass| self.sites.iter().filter(move |s| s.pass == pass);
        let tally = |pass, key: fn(&Site) -> &str| {
            let mut keys: Vec<&str> = of(pass).map(key).collect();
            keys.sort_unstable();
            keys.chunk_by(|a, b| a == b)
                .map(|run| format!("{} {}", run[0], run.len()))
                .collect::<Vec<_>>()
                .join(", ")
        };
        [
            format!(
                "ordering: {} atomic sites, {} SeqCst",
                of(Pass::Ordering).count(),
                of(Pass::Ordering)
                    .filter(|s| s.sig.contains("SeqCst"))
                    .count(),
            ),
            format!(
                "progress: {} loops — {}",
                of(Pass::Progress).count(),
                tally(Pass::Progress, |s| s.bound().0)
            ),
            format!(
                "unsafety: {} unsafe sites — {}",
                of(Pass::Unsafety).count(),
                tally(Pass::Unsafety, |s| &s.sig)
            ),
        ]
    }
}

// ===================================================================
// Tree walk
// ===================================================================

/// Reads every `.rs` file under `root/crates/*/src`, sorted by path, as
/// `(workspace-relative path with forward slashes, text)`.
pub fn load_tree(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                collect(&path, out)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect(&src, &mut paths)?;
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel = rel.to_string_lossy().replace('\\', "/");
            Ok((rel, std::fs::read_to_string(&path)?))
        })
        .collect()
}

// ===================================================================
// DESIGN.md citations
// ===================================================================

/// Directories whose files are checked for DESIGN citations, recursively
/// (a `target` directory is skipped). `CHANGES.md` is deliberately out of
/// scope: it is history, and its entries cite sections as they were
/// numbered when written — an early entry cites a section 15 that no
/// longer exists.
pub const CITING_DIRS: &[&str] = &["crates", "tests", "tools", "examples"];

/// Root-level files checked for DESIGN citations.
pub const CITING_FILES: &[&str] = &["README.md", "PAPER_MAP.md", "DESIGN.md"];

/// File extensions read under [`CITING_DIRS`].
const CITING_EXTS: &[&str] = &["rs", "md", "toml", "txt"];

/// The section numbers of `design`'s numbered headings: `## 11. Topology`
/// gives `11`, `### 3.1 Fast path` gives `3.1`.
pub fn design_sections(design: &str) -> Vec<String> {
    design
        .lines()
        .filter_map(|line| {
            let title = line.strip_prefix("##")?.trim_start_matches('#');
            let title = title.strip_prefix(' ')?;
            let end = title
                .find(|c: char| !c.is_ascii_digit() && c != '.')
                .unwrap_or(title.len());
            let number = title[..end].trim_end_matches('.');
            (!number.is_empty()).then(|| number.to_string())
        })
        .collect()
}

/// Every DESIGN section citation in `text`, as `(line, section)`:
/// `DESIGN.md §n(.m)` or `DESIGN §n`, also with the file name in
/// backquotes or the `§` wrapped onto the next comment line, and both ends
/// of a range (`§9–10`).
pub fn design_citations(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("DESIGN") {
        let rest = &text[at + "DESIGN".len()..];
        let rest = rest.strip_prefix(".md").unwrap_or(rest);
        let rest = rest.trim_start_matches(|c: char| c.is_whitespace() || "`/!*".contains(c));
        let Some(mut rest) = rest.strip_prefix('§') else {
            continue;
        };
        let line = text[..at].matches('\n').count() + 1;
        // BOUND: capacity — each pass consumes a number from `rest`, a
        // suffix of the file
        loop {
            let end = rest
                .find(|c: char| !c.is_ascii_digit() && c != '.')
                .unwrap_or(rest.len());
            let number = rest[..end].trim_end_matches('.');
            if number.is_empty() {
                break;
            }
            out.push((line, number.to_string()));
            rest = &rest[end..];
            match rest.strip_prefix(['–', '-']) {
                Some(next) if next.starts_with(|c: char| c.is_ascii_digit()) => rest = next,
                _ => break,
            }
        }
    }
    out
}

/// Checks every DESIGN citation in `files` (`(path, text)` pairs, as
/// [`load_citing`] returns them) against `design`'s headings. Returns the
/// number of citations found and one clippy-style error per citation that
/// names no heading.
pub fn check_citations(files: &[(String, String)], design: &str) -> (usize, Vec<String>) {
    let sections = design_sections(design);
    let mut found = 0;
    let mut errors = Vec::new();
    for (file, text) in files {
        for (line, section) in design_citations(text) {
            found += 1;
            if !sections.contains(&section) {
                errors.push(format!(
                    "error: dangling DESIGN citation\n  --> {file}:{line} §{section}\n  = note: DESIGN.md has no heading numbered {section}; cite the section that holds the argument"
                ));
            }
        }
    }
    (found, errors)
}

/// Reads the files [`check_citations`] covers: every `.rs`, `.md`,
/// `.toml` or `.txt` file under `root`'s [`CITING_DIRS`], then
/// [`CITING_FILES`], as `(workspace-relative path, text)`.
pub fn load_citing(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    collect(&path, out)?;
                }
            } else if path
                .extension()
                .is_some_and(|e| CITING_EXTS.iter().any(|x| e == *x))
            {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut paths = Vec::new();
    for dir in CITING_DIRS {
        collect(&root.join(dir), &mut paths)?;
    }
    paths.sort();
    paths.extend(CITING_FILES.iter().map(|f| root.join(f)));
    paths
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel = rel.to_string_lossy().replace('\\', "/");
            Ok((rel, std::fs::read_to_string(&path)?))
        })
        .collect()
}

/// Locates the workspace root: the nearest ancestor of `start` containing
/// a `Cargo.toml` with a `[workspace]` section.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
        })
        .map(Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `line sig` of every site of `pass` in `text`.
    fn found(pass: Pass, text: &str) -> Vec<String> {
        let sites = scan_source("x.rs", text);
        let of_pass = sites.iter().filter(|s| s.pass == pass);
        of_pass.map(|s| format!("{} {}", s.line, s.sig)).collect()
    }

    fn notes(pass: Pass, text: &str) -> Vec<Option<String>> {
        let sites = scan_source("x.rs", text);
        let of_pass = sites.into_iter().filter(|s| s.pass == pass);
        of_pass.map(|s| s.note).collect()
    }

    #[test]
    fn lexer_separates_code_comments_and_literals() {
        let text = "let c = '\"'; let s = \"a\\\"b // no\"; x(); // tail 'a\n\
                    /* block /* nested */ still */ y::<'a>(r#\"raw \" text\"#, b'\\'');\n";
        let (code, comments) = lex(text);
        assert_eq!(code.len(), text.len());
        assert_eq!(comments.len(), text.len());
        assert_eq!(
            code.split_whitespace().collect::<Vec<_>>(),
            ["let", "c", "=", ";", "let", "s", "=", ";", "x();", "y::<'a>(", ",", "b", ");"]
        );
        assert_eq!(
            comments.split_whitespace().collect::<Vec<_>>().join(" "),
            "// tail 'a /* block /* nested */ still */"
        );
    }

    #[test]
    fn prose_in_trailing_and_block_comments_is_never_a_site() {
        // The two shapes a whole-line `//` check lets through, plus the
        // `.load(` needle sharing the hole.
        let text = "fn f() {\n\
                    let x = 1; // not unsafe here, spin while waiting, a.load(SeqCst)\n\
                    /* unsafe { } while x, loop { a.store(1, SeqCst) */\n\
                    let s = \"unsafe { loop { while a.load(SeqCst)\";\n\
                    }\n";
        assert_eq!(scan_source("x.rs", text), []);
    }

    #[test]
    fn ordering_pass_reads_ops_and_orderings_in_argument_order() {
        let text = "fn f(a: &AtomicUsize) {\n\
                    a.store(1, Release);\n\
                    let _ = a.compare_exchange(\n  0, 1, // was AcqRel\n  SeqCst,\n  Ordering::Relaxed,\n);\n\
                    fence(SeqCst); asymfence(SeqCst);\n\
                    v.swap(0, 1); x.payload(SeqCst);\n\
                    }\n";
        assert_eq!(
            found(Pass::Ordering, text),
            [
                "2 store(Release)",
                "3 compare_exchange(SeqCst, Relaxed)",
                "8 fence(SeqCst)"
            ]
        );
    }

    #[test]
    fn ordering_annotations_cover_their_syntactic_extent() {
        let text = "//! ORDERING: file\n\
                    // ORDERING: fn\n\
                    #[inline]\n\
                    pub(crate) fn f<T, U>(a: &A) -> u64 {\n\
                    a.x.store(1, SeqCst);\n\
                    // ORDERING: stmt\n\
                    // (continued)\n\
                    let v = if a.x.load(Acquire) == 0 { 1 } else { a.y.load(Acquire) };\n\
                    match v {\n\
                    // ORDERING: arm\n\
                    0 => a.x.load(Relaxed),\n\
                    _ => a.y.load(Relaxed),\n\
                    }\n\
                    }\n\
                    fn g(a: &A) { a.x.store(0, SeqCst); }\n";
        let why = |s: &str| Some(s.to_string());
        assert_eq!(
            notes(Pass::Ordering, text),
            [
                why("fn"),
                why("stmt (continued)"), // an inner annotation wins ...
                why("stmt (continued)"), // ... through the whole `if … else`
                why("arm"),
                why("fn"), // the `,` ended the arm's extent
                why("file"),
            ]
        );
        // No annotation at all: the site is found and left uncovered.
        assert_eq!(
            notes(Pass::Ordering, "fn g(a: &A) { a.x.store(0, SeqCst); }"),
            [None]
        );
    }

    #[test]
    fn progress_pass_classifies_loop_kinds_and_reads_adjacent_bounds() {
        let text = "fn f(n: usize) {\n\
                    // BOUND: const — at most\n\
                    // three passes\n\
                    loop { break; }\n\
                    'outer: loop { break 'outer; } // BOUND: wait-edge\n\
                    while n > 0 { }\n\
                    // BOUND: finite-iter — drains\n\
                    #[allow(clippy::while_let_on_iterator)]\n\
                    while let Some(x) = it.next() { }\n\
                    std::hint::spin_loop(); let whiled = 1; let looper = 2;\n\
                    }\n";
        assert_eq!(
            found(Pass::Progress, text),
            ["4 loop", "5 loop", "6 while", "9 while-let"]
        );
        let sites = scan_source("x.rs", text);
        let bounds: Vec<_> = sites
            .iter()
            .map(|s| (s.note.is_some(), s.bound()))
            .collect();
        assert_eq!(
            bounds,
            [
                (true, ("const", "at most three passes")),
                (true, ("wait-edge", "")),
                (false, ("", "")), // the trailing comment above is not adjacent
                (true, ("finite-iter", "drains")),
            ]
        );
    }

    #[test]
    fn unsafety_pass_classifies_kinds_and_safety_adjacency() {
        let text = "\n\
                    // SAFETY: the pointer is owned for the struct's lifetime.\n\
                    unsafe impl Send for X {}\n\
                    unsafe impl Sync for X {}\n\
                    \n\
                    /// Frobnicates.\n\
                    ///\n\
                    /// # Safety\n\
                    /// `p` must point to a live allocation.\n\
                    pub unsafe fn frob(p: *mut u8) {\n\
                    // SAFETY: caller contract.\n\
                    unsafe { std::ptr::write_bytes(p, 0, 1) };\n\
                    unsafe { *p = 1 };\n\
                    }\n\
                    struct Y { f: unsafe fn(*mut u8) }\n\
                    unsafe trait Z {} // SAFETY (to implement): never.\n";
        let documented: Vec<_> = notes(Pass::Unsafety, text)
            .iter()
            .map(Option::is_some)
            .collect();
        assert_eq!(
            found(Pass::Unsafety, text),
            [
                "3 unsafe(impl)",
                "4 unsafe(impl)",
                "10 unsafe(fn)",
                "12 unsafe(block)",
                "13 unsafe(block)",
                "15 unsafe(fn-ptr)",
                "16 unsafe(trait)"
            ]
        );
        // The stacked pair shares one comment; the doc section counts for
        // the fn; the second block and the pointer type have nothing.
        assert_eq!(documented, [true, true, true, true, false, false, true]);
    }

    /// The `§` is spelled `\u{a7}` in these literals so that this file's
    /// own text holds no citation for the tree-wide check to read.
    #[test]
    fn design_citations_resolve_or_fail() {
        let design = "# DESIGN\n## 3. Notes\n### 3.1 Fast path\n### Unnumbered\n## 11. Topology\n";
        assert_eq!(design_sections(design), ["3", "3.1", "11"]);
        let text = "// see DESIGN.md \u{a7}3.1's layout rule and DESIGN \u{a7}11.\n\
                    //! (`DESIGN.md` \u{a7}3–11) and (DESIGN.md\n//! \u{a7}11)\n";
        let cited: Vec<_> = design_citations(text);
        let want = [(1, "3.1"), (1, "11"), (2, "3"), (2, "11"), (2, "11")];
        let want: Vec<_> = want.iter().map(|&(l, s)| (l, s.to_string())).collect();
        assert_eq!(cited, want);
        let files = [("x.rs".to_string(), text.to_string())];
        assert_eq!(check_citations(&files, design), (5, Vec::new()));

        // A dangling section fails, with its file and line.
        let files = [(
            "y.md".to_string(),
            "a\nper DESIGN.md \u{a7}99, b\n".to_string(),
        )];
        let (found, errors) = check_citations(&files, design);
        assert_eq!(found, 1);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("y.md:2 \u{a7}99"), "{}", errors[0]);
        // A heading-less number is not a section: `§3.2` is not `§3`.
        let files = [("z.rs".to_string(), "DESIGN \u{a7}3.2".to_string())];
        assert_eq!(check_citations(&files, design).1.len(), 1);
    }
}
