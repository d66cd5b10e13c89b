//! The invariant catalog: rules R1–R5 over lexed source files.
//!
//! Every rule reads the token stream from [`crate::lexer`] — never raw
//! text — so string literals and comments can't spoof a violation, and
//! every rule honors the shared waiver grammar:
//!
//! ```text
//! // lint:allow(rule) — reason
//! ```
//!
//! on the flagged line or the line directly above it, where `rule` is one
//! of `panic`, `atomic`, `lock`, and the reason is mandatory. Waivers are
//! counted and capped (`[waivers]` in `lint.toml`); the cap turns "just
//! waive it" from a habit into a budget.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::lexer::{lex, FileLex, Tok, TokKind};

/// One rule violation, pointing at a file line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// Stable rule id (`R1/unsafe` … `R5/docs`, `W/waiver`).
    pub rule: &'static str,
    /// Human message; also the baseline-matching key together with
    /// rule + path (line numbers deliberately excluded so baselines
    /// survive unrelated edits above a grandfathered site).
    pub message: String,
}

impl Finding {
    /// The line-number-free identity used by baselines.
    pub fn baseline_key(&self) -> String {
        format!("{}\t{}\t{}", self.rule, self.path, self.message)
    }
}

/// A parsed `lint:allow(tag)` waiver.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Line the waiver comment starts on.
    pub line: u32,
    /// The rule tag inside `lint:allow(…)`.
    pub tag: String,
    /// Whether a non-trivial reason follows the tag (required).
    pub has_reason: bool,
    /// A standalone comment covers the line below it; a trailing comment
    /// covers only its own line. Without the distinction, a trailing
    /// waiver would silently spill onto the next statement.
    pub standalone: bool,
}

/// One source file, lexed and annotated for the rules.
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// The token stream and comments.
    pub lex: FileLex,
    /// `#[cfg(test)]` line ranges (inclusive); rules scoped to production
    /// code skip findings inside them.
    pub test_regions: Vec<(u32, u32)>,
    /// Every `lint:allow` waiver found in comments.
    pub waivers: Vec<Waiver>,
    /// Brace depth at each token (before consuming the token).
    depth: Vec<i32>,
}

impl SourceFile {
    /// Lexes `content` and precomputes test regions, waivers, depths.
    pub fn new(path: impl Into<String>, content: &str) -> SourceFile {
        let lexed = lex(content);
        let mut depth = Vec::with_capacity(lexed.tokens.len());
        let mut d = 0i32;
        for tok in &lexed.tokens {
            depth.push(d);
            if tok.is_punct('{') {
                d += 1;
            } else if tok.is_punct('}') {
                d -= 1;
            }
        }
        let test_regions = find_test_regions(&lexed.tokens);
        let waivers = find_waivers(&lexed);
        SourceFile {
            path: path.into(),
            lex: lexed,
            test_regions,
            waivers,
            depth,
        }
    }

    fn in_test(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// A well-formed waiver for `tag`: trailing on the same line, or a
    /// standalone comment on the line directly above.
    fn waived(&self, line: u32, tag: &str) -> bool {
        self.waivers.iter().any(|w| {
            w.tag == tag
                && w.has_reason
                && if w.standalone {
                    w.line + 1 == line
                } else {
                    w.line == line
                }
        })
    }

    /// Identifiers of the statement a token belongs to, scanning backward
    /// from `idx` to the nearest statement boundary (`;`, `{`, `}`).
    fn statement_idents_before(&self, idx: usize) -> BTreeSet<&str> {
        let mut idents = BTreeSet::new();
        for tok in self.lex.tokens[..idx].iter().rev().take(48) {
            if tok.is_punct(';') || tok.is_punct('{') || tok.is_punct('}') {
                break;
            }
            if tok.kind == TokKind::Ident {
                idents.insert(tok.text.as_str());
            }
        }
        idents
    }
}

/// Locates `#[cfg(test)]`-gated items and returns their line spans.
fn find_test_regions(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let start_line = tokens[i].line;
            // Find the attribute's closing bracket and check its idents.
            let mut j = i + 2;
            let mut bracket = 1i32;
            let (mut saw_cfg, mut saw_test) = (false, false);
            while j < tokens.len() && bracket > 0 {
                let t = &tokens[j];
                if t.is_punct('[') {
                    bracket += 1;
                } else if t.is_punct(']') {
                    bracket -= 1;
                } else if t.is_ident("cfg") {
                    saw_cfg = true;
                } else if t.is_ident("test") {
                    saw_test = true;
                }
                j += 1;
            }
            if saw_cfg && saw_test {
                // Skip any further attributes, then span the gated item:
                // everything to its closing brace (or terminating `;`).
                while j < tokens.len()
                    && tokens[j].is_punct('#')
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    let mut b = 1i32;
                    let mut k = j + 2;
                    while k < tokens.len() && b > 0 {
                        if tokens[k].is_punct('[') {
                            b += 1;
                        } else if tokens[k].is_punct(']') {
                            b -= 1;
                        }
                        k += 1;
                    }
                    j = k;
                }
                let mut brace = 0i32;
                let mut end_line = tokens.get(j).map_or(start_line, |t| t.line);
                while j < tokens.len() {
                    let t = &tokens[j];
                    end_line = t.line;
                    if t.is_punct('{') {
                        brace += 1;
                    } else if t.is_punct('}') {
                        brace -= 1;
                        if brace == 0 {
                            break;
                        }
                    } else if t.is_punct(';') && brace == 0 {
                        break;
                    }
                    j += 1;
                }
                regions.push((start_line, end_line));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

/// Extracts `lint:allow(tag) — reason` waivers from comments.
fn find_waivers(lexed: &FileLex) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for comment in &lexed.comments {
        // Doc comments describing the grammar are not waivers.
        if comment.text.starts_with("///")
            || comment.text.starts_with("//!")
            || comment.text.starts_with("/**")
            || comment.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = comment.text.find("lint:allow(") else {
            continue;
        };
        let rest = &comment.text[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let tag = rest[..close].trim().to_owned();
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
            .trim();
        let standalone = !lexed.tokens.iter().any(|t| t.line == comment.line);
        waivers.push(Waiver {
            line: comment.line,
            tag,
            has_reason: reason.chars().filter(|c| !c.is_whitespace()).count() >= 3,
            standalone,
        });
    }
    waivers
}

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Integration tests and benches are whole files of test code that
/// `#[cfg(test)]` scanning can't see; the production-code rules skip them.
fn is_test_path(path: &str) -> bool {
    path.contains("/tests/") || path.contains("/benches/") || path.contains("/examples/")
}

/// Keywords that may directly precede `[` without forming an index
/// expression (slice patterns, types, and friends).
const NON_INDEX_KEYWORDS: [&str; 24] = [
    "let", "in", "return", "if", "else", "match", "mut", "ref", "as", "move", "where", "for",
    "while", "loop", "break", "continue", "impl", "fn", "pub", "use", "mod", "const", "static",
    "dyn",
];

const KNOWN_WAIVER_TAGS: [&str; 3] = ["panic", "atomic", "lock"];

/// Runs every rule over `files` under `config`; findings are sorted and
/// deduplicated. `doc_text` is the protocol doc for R5 (`None` is itself
/// a finding when R5 is configured).
pub fn run_rules(config: &Config, files: &[SourceFile], doc_text: Option<&str>) -> Vec<Finding> {
    let mut findings = Vec::new();
    rule_unsafe_confinement(config, files, &mut findings);
    rule_panic_ban(config, files, &mut findings);
    rule_atomic_orderings(config, files, &mut findings);
    rule_lock_across_call(config, files, &mut findings);
    rule_docs_drift(config, files, doc_text, &mut findings);
    rule_waiver_hygiene(config, files, &mut findings);
    findings.sort();
    findings.dedup();
    findings
}

/// R1: the token `unsafe` is legal only in the sanctioned file(s); every
/// crate root must pin the ban with `#![forbid(unsafe_code)]` (the crate
/// housing the sanctioned module gets `deny` + a scoped allowance).
fn rule_unsafe_confinement(config: &Config, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let sanctioned = config.list("unsafe", "sanctioned");
    let deny_ok = config.list("unsafe", "deny_ok");
    for file in files {
        if sanctioned.contains(&file.path) {
            continue;
        }
        for tok in &file.lex.tokens {
            if tok.is_ident("unsafe") {
                findings.push(Finding {
                    path: file.path.clone(),
                    line: tok.line,
                    rule: "R1/unsafe",
                    message: format!(
                        "`unsafe` outside the sanctioned module(s) [{}]",
                        sanctioned.join(", ")
                    ),
                });
            }
        }
        let is_crate_root = file.path.ends_with("src/lib.rs");
        if is_crate_root {
            let want_forbid = !deny_ok.contains(&file.path);
            let level = if want_forbid { "forbid" } else { "deny" };
            if !has_inner_attr(&file.lex.tokens, level, "unsafe_code") {
                findings.push(Finding {
                    path: file.path.clone(),
                    line: 1,
                    rule: "R1/unsafe",
                    message: format!("crate root missing `#![{level}(unsafe_code)]`"),
                });
            }
        }
    }
}

/// `#![level(word)]` as a token sequence anywhere in the file.
fn has_inner_attr(tokens: &[Tok], level: &str, word: &str) -> bool {
    tokens.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident(level)
            && w[4].is_punct('(')
            && w[5].is_ident(word)
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

/// R2: panic paths are banned in designated hot-path modules — `unwrap`,
/// `expect`, `panic!`/`todo!`/`unreachable!`, and slice indexing that
/// should be `.get()`. Justified waivers (`lint:allow(panic)`) are the
/// escape hatch, counted and capped.
fn rule_panic_ban(config: &Config, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let hot = config.list("hot_paths", "files");
    for file in files {
        if !hot.contains(&file.path) {
            continue;
        }
        let toks = &file.lex.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if file.in_test(tok.line) || file.waived(tok.line, "panic") {
                continue;
            }
            let flag = |message: String, findings: &mut Vec<Finding>| {
                findings.push(Finding {
                    path: file.path.clone(),
                    line: tok.line,
                    rule: "R2/panic",
                    message,
                });
            };
            if tok.kind == TokKind::Ident
                && (tok.text == "unwrap" || tok.text == "expect")
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                flag(format!(".{}() on a hot path", tok.text), findings);
            }
            if tok.kind == TokKind::Ident
                && matches!(tok.text.as_str(), "panic" | "todo" | "unreachable")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                && !(i > 0 && toks[i - 1].is_punct('.'))
            {
                flag(format!("{}! on a hot path", tok.text), findings);
            }
            if tok.is_punct('[') && i > 0 {
                let prev = &toks[i - 1];
                let indexes = match prev.kind {
                    TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                    TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                    _ => false,
                };
                if indexes {
                    let base = if prev.kind == TokKind::Ident {
                        prev.text.as_str()
                    } else {
                        "expression"
                    };
                    flag(
                        format!("slice index on `{base}` (use .get()) on a hot path"),
                        findings,
                    );
                }
            }
        }
    }
}

/// R3: every atomic `Ordering::X` must match the file's allowlist in
/// `lint.toml` or carry a waiver. Two escalations bypass the allowlist:
/// `SeqCst` is only sanctioned on identifiers named in the file's
/// `seqcst_idents` (cross-thread *flags*, where the full fence is the
/// point), and `Relaxed` touching anything named `*_flag` / `shutdown` /
/// `draining` is flagged outright (a relaxed load can run arbitrarily
/// stale against the store that set the flag).
fn rule_atomic_orderings(config: &Config, files: &[SourceFile], findings: &mut Vec<Finding>) {
    for file in files {
        if is_test_path(&file.path) {
            continue;
        }
        let section = format!("atomics.{}", file.path);
        let allow = config.list(&section, "allow");
        let seqcst_idents = config.list(&section, "seqcst_idents");
        let toks = &file.lex.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if !tok.is_ident("Ordering") || file.in_test(tok.line) {
                continue;
            }
            let variant = match (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3)) {
                (Some(a), Some(b), Some(v))
                    if a.is_punct(':') && b.is_punct(':') && v.kind == TokKind::Ident =>
                {
                    &v.text
                }
                _ => continue,
            };
            if !ATOMIC_ORDERINGS.contains(&variant.as_str()) {
                continue; // std::cmp::Ordering and friends
            }
            if file.waived(tok.line, "atomic") {
                continue;
            }
            let stmt = file.statement_idents_before(i);
            let flaggish = stmt
                .iter()
                .any(|id| id.ends_with("_flag") || *id == "shutdown" || *id == "draining");
            let mut flag = |message: String| {
                findings.push(Finding {
                    path: file.path.clone(),
                    line: tok.line,
                    rule: "R3/atomic",
                    message,
                });
            };
            match variant.as_str() {
                "SeqCst" => {
                    if !stmt.iter().any(|id| seqcst_idents.iter().any(|s| s == id)) {
                        flag(
                            "Ordering::SeqCst off the sanctioned flags (hot counters pay a full \
                             fence; add the ident to seqcst_idents if it IS a flag)"
                                .to_owned(),
                        );
                    }
                }
                "Relaxed" if flaggish => {
                    flag(
                        "Ordering::Relaxed on a cross-thread flag (*_flag/shutdown/draining \
                         must synchronize)"
                            .to_owned(),
                    );
                }
                v => {
                    if !allow.iter().any(|a| a == v) {
                        flag(format!(
                            "Ordering::{v} not in this file's allowlist (lint.toml [atomics.\"{}\"])",
                            file.path
                        ));
                    }
                }
            }
        }
    }
}

/// R4: a `let`-bound `.lock()` guard alive across an oracle/query call in
/// the same scope serializes every caller behind one query's probes. The
/// MemoOracle exactly-once pattern is the sanctioned exception, via
/// waiver.
fn rule_lock_across_call(config: &Config, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let triggers = config.list("lock", "triggers");
    if triggers.is_empty() {
        return;
    }
    for file in files.iter().filter(|f| !is_test_path(&f.path)) {
        let toks = &file.lex.tokens;
        let mut i = 0;
        while i < toks.len() {
            if !toks[i].is_ident("let") || file.in_test(toks[i].line) {
                i += 1;
                continue;
            }
            // Span the binding statement and see whether it takes a lock.
            // An `if let` / `while let` (or a later `let` of a chain)
            // binds a scrutinee that ends at its block's `{`, and the guard
            // lives in that block; any statement ends by the close of the
            // block it sits in.
            let let_depth = file.depth[i];
            let scrutinee = i > 0
                && (toks[i - 1].is_ident("if")
                    || toks[i - 1].is_ident("while")
                    || toks[i - 1].is_punct('&'));
            let mut parens = 0i32;
            let mut j = i + 1;
            let mut guard: Option<&str> = None;
            let mut takes_lock = false;
            while j < toks.len() && file.depth[j] >= let_depth {
                let t = &toks[j];
                if t.is_punct(';') && file.depth[j] == let_depth {
                    break;
                }
                if t.is_punct('(') || t.is_punct('[') {
                    parens += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    parens -= 1;
                } else if scrutinee && t.is_punct('{') && parens == 0 {
                    break;
                }
                if t.is_punct('=') && guard.is_none() {
                    // Pattern complete: the last ident seen names the guard.
                    guard = toks[i + 1..j]
                        .iter()
                        .rev()
                        .find(|t| t.kind == TokKind::Ident && t.text != "mut")
                        .map(|t| t.text.as_str());
                }
                if t.is_ident("lock")
                    && j > 0
                    && toks[j - 1].is_punct('.')
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
                {
                    takes_lock = true;
                }
                j += 1;
            }
            let stmt_end = j;
            // A statement cut off by its block's close binds nothing after.
            let ended = toks
                .get(j)
                .is_some_and(|t| t.is_punct(';') || t.is_punct('{'))
                && file.depth[j] == let_depth;
            if !(takes_lock && guard.is_some() && ended) {
                i += 1;
                continue;
            }
            let guard = guard.unwrap_or_default();
            // Scan the rest of the guard's scope for a trigger call: the
            // enclosing block after a `let`, the block a scrutinee opens.
            let scope_depth = let_depth + i32::from(toks[stmt_end].is_punct('{'));
            let mut k = stmt_end + 1;
            while k < toks.len() && file.depth[k] >= scope_depth {
                let t = &toks[k];
                // An explicit drop of the guard ends its liveness early.
                if t.is_ident("drop")
                    && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(k + 2).is_some_and(|t| t.is_ident(guard))
                {
                    break;
                }
                if t.kind == TokKind::Ident
                    && triggers.iter().any(|tr| tr == &t.text)
                    && k > 0
                    && toks[k - 1].is_punct('.')
                    && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                    && !file.waived(t.line, "lock")
                    && !file.waived(toks[i].line, "lock")
                {
                    findings.push(Finding {
                        path: file.path.clone(),
                        line: t.line,
                        rule: "R4/lock",
                        message: format!(
                            ".{}() under the `{guard}` lock guard bound at line {}",
                            t.text, toks[i].line
                        ),
                    });
                }
                k += 1;
            }
            i += 1;
        }
    }
}

/// R5: the wire protocol's field and code literals and the protocol doc's
/// machine-readable table must be the same set, both directions.
fn rule_docs_drift(
    config: &Config,
    files: &[SourceFile],
    doc_text: Option<&str>,
    findings: &mut Vec<Finding>,
) {
    let sources = config.list("docs", "sources");
    let Some(doc_path) = config.str("docs", "protocol") else {
        return;
    };
    let ignore = config.list("docs", "ignore");
    // Code side: lowercase field/code-shaped string literals.
    let mut code: BTreeMap<&str, (&str, u32)> = BTreeMap::new();
    for file in files {
        if !sources.contains(&file.path) {
            continue;
        }
        for tok in &file.lex.tokens {
            if tok.kind != TokKind::Str || file.in_test(tok.line) {
                continue;
            }
            if is_protocol_literal(&tok.text) && !ignore.contains(&tok.text) {
                code.entry(tok.text.as_str())
                    .or_insert((file.path.as_str(), tok.line));
            }
        }
    }
    // Doc side: the fenced field table.
    let Some(doc) = doc_text else {
        findings.push(Finding {
            path: doc_path.to_owned(),
            line: 1,
            rule: "R5/docs",
            message: "protocol doc is missing or unreadable".to_owned(),
        });
        return;
    };
    let mut table: BTreeMap<String, u32> = BTreeMap::new();
    let (mut in_table, mut saw_begin, mut saw_end) = (false, false, false);
    for (lineno, line) in doc.lines().enumerate() {
        let lineno = lineno as u32 + 1;
        if line.contains("lint-field-table:begin") {
            in_table = true;
            saw_begin = true;
            continue;
        }
        if line.contains("lint-field-table:end") {
            in_table = false;
            saw_end = true;
            continue;
        }
        if !in_table {
            continue;
        }
        let Some(cell) = line
            .trim()
            .strip_prefix('|')
            .and_then(|r| r.split('|').next())
        else {
            continue;
        };
        let name = cell.trim().trim_matches('`').trim();
        if name.is_empty() || name == "literal" || name.chars().all(|c| "-: ".contains(c)) {
            continue; // header and separator rows
        }
        table.entry(name.to_owned()).or_insert(lineno);
    }
    if !(saw_begin && saw_end) {
        findings.push(Finding {
            path: doc_path.to_owned(),
            line: 1,
            rule: "R5/docs",
            message: "protocol doc is missing the lint-field-table:begin/end markers".to_owned(),
        });
        return;
    }
    for (literal, (path, line)) in &code {
        if !table.contains_key(*literal) {
            findings.push(Finding {
                path: (*path).to_owned(),
                line: *line,
                rule: "R5/docs",
                message: format!("wire literal \"{literal}\" is not in {doc_path}'s field table"),
            });
        }
    }
    for (literal, line) in &table {
        if !code.contains_key(literal.as_str()) {
            findings.push(Finding {
                path: doc_path.to_owned(),
                line: *line,
                rule: "R5/docs",
                message: format!(
                    "documented literal \"{literal}\" no longer appears in the wire sources"
                ),
            });
        }
    }
}

/// Field/code shape: `session`, `budget-exhausted`, `max_probes`, … —
/// lowercase, at least two chars, nothing a message string would match.
fn is_protocol_literal(s: &str) -> bool {
    s.len() >= 2
        && s.starts_with(|c: char| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
}

/// Waiver hygiene: unknown tags and missing reasons are findings, and the
/// per-tag counts must stay under the caps in `[waivers]`.
fn rule_waiver_hygiene(config: &Config, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for file in files {
        for waiver in &file.waivers {
            if !KNOWN_WAIVER_TAGS.contains(&waiver.tag.as_str()) {
                findings.push(Finding {
                    path: file.path.clone(),
                    line: waiver.line,
                    rule: "W/waiver",
                    message: format!(
                        "unknown waiver tag `{}` (known: {})",
                        waiver.tag,
                        KNOWN_WAIVER_TAGS.join(", ")
                    ),
                });
                continue;
            }
            if !waiver.has_reason {
                findings.push(Finding {
                    path: file.path.clone(),
                    line: waiver.line,
                    rule: "W/waiver",
                    message: format!("waiver `lint:allow({})` without a reason", waiver.tag),
                });
            }
            *counts
                .entry(
                    KNOWN_WAIVER_TAGS[KNOWN_WAIVER_TAGS
                        .iter()
                        .position(|t| *t == waiver.tag)
                        .unwrap_or(0)],
                )
                .or_insert(0) += 1;
        }
    }
    for (tag, count) in counts {
        let cap_key = format!("max_{tag}");
        if let Some(cap) = config.int("waivers", &cap_key) {
            if count as i64 > cap {
                findings.push(Finding {
                    path: "lint.toml".to_owned(),
                    line: 1,
                    rule: "W/waiver",
                    message: format!(
                        "{count} `lint:allow({tag})` waivers exceed the cap of {cap} \
                         ([waivers] {cap_key})"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(text: &str) -> Config {
        Config::parse(text).unwrap()
    }

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path, src)
    }

    #[test]
    fn test_regions_cover_gated_mods_and_fns() {
        let f = file(
            "x.rs",
            "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n",
        );
        assert!(f.in_test(3));
        assert!(f.in_test(4));
        assert!(!f.in_test(1));
        assert!(!f.in_test(6));
    }

    #[test]
    fn unsafe_confinement_spares_only_the_sanctioned_file() {
        let config = cfg(r#"
            [unsafe]
            sanctioned = ["crates/serve/src/sys.rs"]
            deny_ok = ["crates/serve/src/lib.rs"]
            "#);
        let files = [
            file("crates/serve/src/sys.rs", "unsafe { x() }"),
            file("crates/graph/src/graph.rs", "unsafe { y() }"),
            file(
                "crates/graph/src/lib.rs",
                "#![forbid(unsafe_code)]\npub mod graph;",
            ),
            file("crates/rand/src/lib.rs", "pub mod coin;"),
        ];
        let findings = run_rules(&config, &files, None);
        let r1: Vec<_> = findings.iter().filter(|f| f.rule == "R1/unsafe").collect();
        assert_eq!(r1.len(), 2, "{r1:?}");
        assert!(r1.iter().any(|f| f.path == "crates/graph/src/graph.rs"));
        assert!(r1
            .iter()
            .any(|f| f.path == "crates/rand/src/lib.rs" && f.message.contains("forbid")));
    }

    #[test]
    fn panic_ban_catches_each_shape_and_honors_waivers() {
        let config = cfg("[hot_paths]\nfiles = [\"hot.rs\"]");
        let src = r#"
fn f(v: &[u8], m: &std::sync::Mutex<u8>) {
    v.first().unwrap();
    m.lock().expect("poisoned"); // lint:allow(panic) — poisoned mutex means a prior panic
    panic!("boom");
    let _x = v[0];
    let [_a, _b] = [1, 2]; // slice pattern: not an index
}
#[cfg(test)]
mod tests { fn t() { None::<u8>.unwrap(); } }
"#;
        let findings = run_rules(&config, &[file("hot.rs", src)], None);
        let r2: Vec<_> = findings.iter().filter(|f| f.rule == "R2/panic").collect();
        assert_eq!(r2.len(), 3, "{r2:?}");
        assert!(r2.iter().any(|f| f.message.contains(".unwrap()")));
        assert!(r2.iter().any(|f| f.message.contains("panic!")));
        assert!(r2.iter().any(|f| f.message.contains("slice index on `v`")));
    }

    #[test]
    fn atomic_audit_allowlists_escalates_seqcst_and_relaxed_flags() {
        let config = cfg(r#"
            [atomics."a.rs"]
            allow = ["Relaxed"]
            seqcst_idents = ["draining"]
            "#);
        let src = r#"
fn f(c: &std::sync::atomic::AtomicU64) {
    use std::sync::atomic::Ordering;
    c.fetch_add(1, Ordering::Relaxed);
    c.load(Ordering::Acquire);
    self.draining.store(true, Ordering::SeqCst);
    self.counter.fetch_add(1, Ordering::SeqCst);
    self.shutdown.load(Ordering::Relaxed);
    let _ = std::cmp::Ordering::Less;
}
"#;
        let findings = run_rules(&config, &[file("a.rs", src)], None);
        let r3: Vec<_> = findings.iter().filter(|f| f.rule == "R3/atomic").collect();
        assert_eq!(r3.len(), 3, "{r3:?}");
        assert!(r3.iter().any(|f| f.message.contains("Acquire")));
        assert!(r3.iter().any(|f| f.message.contains("SeqCst off")));
        assert!(r3.iter().any(|f| f.message.contains("cross-thread flag")));
    }

    #[test]
    fn lock_across_call_sees_the_guard_scope_and_drop() {
        let config = cfg("[lock]\ntriggers = [\"query\", \"probe\"]");
        let src = r#"
fn bad(o: &O) {
    let g = self.memo.lock().unwrap();
    o.query(1);
}
fn fine(o: &O) {
    let g = self.memo.lock().unwrap();
    drop(g);
    o.query(1);
}
fn scoped(o: &O) {
    { let g = self.memo.lock().unwrap(); }
    o.query(1);
}
"#;
        let findings = run_rules(&config, &[file("l.rs", src)], None);
        let r4: Vec<_> = findings.iter().filter(|f| f.rule == "R4/lock").collect();
        assert_eq!(r4.len(), 1, "{r4:?}");
        assert_eq!(r4[0].line, 4);
        assert!(r4[0].message.contains("`g`"));
    }

    #[test]
    fn lock_guard_scope_ends_with_its_block() {
        let config = cfg("[lock]\ntriggers = [\"query\", \"probe\"]");
        // An `if let` closing a function must not swallow the next one.
        let src = r#"
fn capped(budget: &Budget, memo: &Mutex<u64>) {
    if let Some(limit) = budget.max_probes {
        *memo.lock().unwrap() = limit;
    }
}
fn next(o: &O) {
    let first = 0;
    o.query(first);
}
fn held(o: &O) {
    if let Some(g) = self.memo.lock().unwrap().get(&1) {
        o.probe(*g);
    }
    o.query(2);
}
fn looped(o: &O) {
    while let Some(x) = self.queue.lock().unwrap().pop() { o.query(x); }
}
"#;
        let findings = run_rules(&config, &[file("l.rs", src)], None);
        let r4: Vec<_> = findings.iter().filter(|f| f.rule == "R4/lock").collect();
        assert_eq!(r4.len(), 2, "{r4:?}");
        assert_eq!((r4[0].line, r4[1].line), (13, 18));
        assert!(r4[0].message.contains("`g`"));
        assert!(r4[1].message.contains("`x`"));
    }

    #[test]
    fn docs_drift_is_two_directional() {
        let config = cfg(r#"
            [docs]
            protocol = "docs/PROTOCOL.md"
            sources = ["proto.rs"]
            "#);
        let src = r#"
fn parse(v: &Json) {
    v.get("session");
    v.get("max_probes");
    let code = "budget-exhausted";
    let msg = "not a field: has spaces";
}
"#;
        let doc = "\
# Protocol\n\
<!-- lint-field-table:begin -->\n\
| literal | kind | meaning |\n\
|---|---|---|\n\
| `session` | field | session name |\n\
| `ghost_field` | field | no longer exists |\n\
<!-- lint-field-table:end -->\n";
        let findings = run_rules(&config, &[file("proto.rs", src)], Some(doc));
        let r5: Vec<_> = findings.iter().filter(|f| f.rule == "R5/docs").collect();
        assert_eq!(r5.len(), 3, "{r5:?}");
        assert!(r5
            .iter()
            .any(|f| f.message.contains("max_probes") && f.path == "proto.rs"));
        assert!(r5.iter().any(|f| f.message.contains("budget-exhausted")));
        assert!(r5
            .iter()
            .any(|f| f.message.contains("ghost_field") && f.path == "docs/PROTOCOL.md"));
    }

    #[test]
    fn waiver_hygiene_checks_tags_reasons_and_caps() {
        let config = cfg("[waivers]\nmax_panic = 1\n[hot_paths]\nfiles = [\"w.rs\"]");
        let src = "
fn f() {
    a.unwrap(); // lint:allow(panic) — first justified case
    b.unwrap(); // lint:allow(panic) — second justified case
    c.unwrap(); // lint:allow(panic)
    d.unwrap(); // lint:allow(panics) — typo tag
}
";
        let findings = run_rules(&config, &[file("w.rs", src)], None);
        let w: Vec<_> = findings.iter().filter(|f| f.rule == "W/waiver").collect();
        assert!(w.iter().any(|f| f.message.contains("without a reason")));
        assert!(w.iter().any(|f| f.message.contains("unknown waiver tag")));
        assert!(w.iter().any(|f| f.message.contains("exceed the cap")));
        // The reasonless waiver does not suppress its finding; the typo'd
        // one cannot either.
        let r2: Vec<_> = findings.iter().filter(|f| f.rule == "R2/panic").collect();
        assert_eq!(r2.len(), 2, "{r2:?}");
    }
}
