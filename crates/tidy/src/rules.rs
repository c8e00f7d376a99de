//! Rule implementations.
//!
//! The six legacy rule families (`no-panic`, `hot-path-hash`,
//! `thread-spawn`, `wall-clock`, `global-alloc`, `missing-docs`) stay
//! line-oriented, but now run over the lexer-derived blanked text
//! (provably identical to the old stripper — see the differential
//! self-test). The four structural families (`nondet-iter`,
//! `atomic-ordering`, `unsafe-safety`, `crate-layering`) and the
//! meta-rule `unused-allow` match on the token stream via [`FileMap`].

use crate::lexer::TokKind;
use crate::parse::FileMap;
use crate::{Violation, ALLOWLIST, HOT_PATH_FILES, LIB_CRATES, RULES};

/// One inline allow directive found in a (non-doc) comment.
struct AllowSite {
    /// 1-based line the directive sits on.
    line: usize,
    /// Rule name inside the parentheses.
    rule: String,
    /// Whether it suppressed at least one would-be violation.
    used: bool,
    /// Whether it sits inside `#[cfg(test)]` code (exempt from
    /// `unused-allow`: test code is not scanned).
    in_test: bool,
}

/// All allow directives of a file, with use tracking.
struct Allows {
    sites: Vec<AllowSite>,
}

const ALLOW_NEEDLE: &str = "diva-tidy: allow(";

impl Allows {
    /// Parses directives out of every non-doc comment token. Doc
    /// comments are prose (they may *mention* the directive syntax);
    /// only `//` and `/* … */` comments carry live directives. Rule
    /// names must be non-empty `[a-z-]` text — anything else is prose,
    /// not a directive.
    fn collect(map: &FileMap) -> Self {
        let mut sites = Vec::new();
        for t in &map.toks {
            if !t.is_comment() {
                continue;
            }
            let doc = ["///", "//!", "/**", "/*!"].iter().any(|p| t.text.starts_with(p));
            if doc && t.text != "/**/" {
                continue;
            }
            let mut offset = 0;
            while let Some(pos) = t.text[offset..].find(ALLOW_NEEDLE) {
                let name_start = offset + pos + ALLOW_NEEDLE.len();
                let Some(end) = t.text[name_start..].find(')') else { break };
                let name = t.text[name_start..name_start + end].trim();
                if !name.is_empty() && name.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
                    let line = t.line + t.text[..name_start].matches('\n').count();
                    sites.push(AllowSite {
                        line,
                        rule: name.to_string(),
                        used: false,
                        in_test: map.line_in_test.get(line - 1).copied().unwrap_or(false),
                    });
                }
                offset = name_start + end;
            }
        }
        Allows { sites }
    }

    /// Whether `rule` is suppressed at 1-based `line` (directive on the
    /// same or the previous line); marks matching directives used.
    fn suppresses(&mut self, rule: &str, line: usize) -> bool {
        let mut hit = false;
        for s in &mut self.sites {
            if s.rule == rule && (s.line == line || s.line + 1 == line) {
                s.used = true;
                hit = true;
            }
        }
        hit
    }
}

/// Shared state for one file's scan.
pub(crate) struct Ctx<'a> {
    path: &'a str,
    map: &'a FileMap,
    allows: Allows,
    out: Vec<Violation>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(path: &'a str, map: &'a FileMap) -> Self {
        Ctx { path, map, allows: Allows::collect(map), out: Vec::new() }
    }

    fn allowlisted(&self, rule: &str) -> bool {
        ALLOWLIST.contains(&(self.path, rule))
    }

    /// Records a violation unless an inline allow suppresses it.
    fn push(&mut self, rule: &'static str, line: usize, col: usize, msg: String) {
        if self.allows.suppresses(rule, line) {
            return;
        }
        self.out.push(Violation { file: self.path.to_string(), line, col, rule, msg });
    }

    pub(crate) fn finish(mut self) -> Vec<Violation> {
        self.rule_unused_allow();
        self.out
    }
}

/// Runs every rule over one file.
pub(crate) fn run_all(ctx: &mut Ctx<'_>) {
    run_legacy_token_rules(ctx);
    if is_doc_scope(ctx.path) && !ctx.allowlisted("missing-docs") {
        check_docs(ctx);
    }
    rule_nondet_iter(ctx);
    rule_atomic_ordering(ctx);
    rule_unsafe_safety(ctx);
    rule_crate_layering(ctx);
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

fn is_library_src(path: &str) -> bool {
    path.starts_with("src/")
        || LIB_CRATES.iter().any(|c| {
            path.strip_prefix("crates/")
                .and_then(|p| p.strip_prefix(c))
                .is_some_and(|p| p.starts_with("/src/"))
        })
}

fn is_hot_path(path: &str) -> bool {
    HOT_PATH_FILES.contains(&path)
}

/// Crates whose public items must carry docs: the whole library
/// surface.
const DOC_SCOPE: [&str; 6] = ["core", "constraints", "obs", "relation", "metrics", "datagen"];

fn is_doc_scope(path: &str) -> bool {
    DOC_SCOPE.iter().any(|c| {
        path.strip_prefix("crates/")
            .and_then(|p| p.strip_prefix(c))
            .is_some_and(|p| p.starts_with("/src/"))
    })
}

// ---------------------------------------------------------------------------
// Legacy line-oriented token rules
// ---------------------------------------------------------------------------

/// Token patterns for one rule: `(needle, what)` pairs.
type Tokens = &'static [(&'static str, &'static str)];

const PANIC_TOKENS: Tokens = &[
    (".unwrap()", "`unwrap()`"),
    (".expect(", "`expect()`"),
    ("panic!", "`panic!`"),
    ("unreachable!", "`unreachable!`"),
    ("todo!", "`todo!`"),
    ("unimplemented!", "`unimplemented!`"),
];

const HASH_TOKENS: Tokens =
    &[("HashMap", "`HashMap`"), ("HashSet", "`HashSet`"), ("BTreeMap", "`BTreeMap`")];

const SPAWN_TOKENS: Tokens = &[("thread::spawn", "`std::thread::spawn`")];

const ALLOC_TOKENS: Tokens =
    &[("std::alloc", "`std::alloc`"), ("GlobalAlloc", "the `GlobalAlloc` trait")];

const CLOCK_TOKENS: Tokens = &[
    ("Instant::now", "`Instant::now`"),
    ("SystemTime::now", "`SystemTime::now`"),
    ("thread_rng", "ambient `thread_rng`"),
    ("from_entropy", "entropy-seeded RNG"),
    ("rand::random", "ambient `rand::random`"),
];

/// Files sanctioned to call `std::thread::spawn`: the two
/// live-telemetry daemons (the background sampler and the stats
/// listener, both owned by join-on-drop handles). Everything else runs
/// on scoped threads — in `core`, through `pool::run_tasks`.
const THREAD_SPAWN_SANCTIONED: [&str; 2] = ["crates/obs/src/live.rs", "crates/obs/src/serve.rs"];

fn run_legacy_token_rules(ctx: &mut Ctx<'_>) {
    let path = ctx.path;
    token_rule(
        ctx,
        "no-panic",
        is_library_src(path),
        PANIC_TOKENS,
        "in library code — route the failure through a typed error (`DivaError`, \
         `ConstraintError`, …) or restructure with `let-else`; `assert!` may state invariants",
    );
    token_rule(
        ctx,
        "hot-path-hash",
        is_hot_path(path),
        HASH_TOKENS,
        "in a dense search kernel — PR 1 de-hashed these modules (bitsets, CSR, dense vecs); \
         use the dense structures or get the use sanctioned on the tidy allowlist",
    );
    token_rule(
        ctx,
        "thread-spawn",
        !THREAD_SPAWN_SANCTIONED.contains(&path),
        SPAWN_TOKENS,
        "outside the sanctioned spawn sites — detached threads outlive their caller and \
         escape its join; use `std::thread::scope` (in `core`, route the work through \
         `pool::run_tasks`), or for telemetry daemons the obs sampler/listener",
    );
    token_rule(
        ctx,
        "wall-clock",
        !path.starts_with("crates/obs/src/"),
        CLOCK_TOKENS,
        "outside `crates/obs` — clock reads are confined to `diva-obs`; time with an obs \
         span or `diva_obs::Stopwatch`, and take randomness from the seeded config",
    );
    token_rule(
        ctx,
        "global-alloc",
        !path.starts_with("crates/obs/src/"),
        ALLOC_TOKENS,
        "outside `crates/obs` — allocator plumbing is confined to `diva_obs::alloc` so memory \
         attribution has one implementation; install `diva_obs::alloc::CountingAlloc` with \
         `#[global_allocator]` instead of rolling raw allocator code",
    );
}

fn token_rule(ctx: &mut Ctx<'_>, rule: &'static str, in_scope: bool, tokens: Tokens, why: &str) {
    if !in_scope || ctx.allowlisted(rule) {
        return;
    }
    for i in 0..ctx.map.code_lines.len() {
        if ctx.map.line_in_test[i] {
            continue;
        }
        for &(needle, what) in tokens {
            if let Some(pos) = ctx.map.code_lines[i].find(needle) {
                let col = ctx.map.code_lines[i][..pos].chars().count() + 1;
                ctx.push(rule, i + 1, col, format!("{what} {why}"));
            }
        }
    }
}

/// The `missing-docs` rule: every non-test `pub` item (fn, struct,
/// enum, trait, type, mod, static, const) must be preceded by a doc
/// comment (attribute lines in between are skipped). `pub(crate)` is
/// exempt — it is not public surface.
fn check_docs(ctx: &mut Ctx<'_>) {
    const KINDS: [(&str, &str); 7] = [
        ("fn ", "pub fn"),
        ("struct ", "pub struct"),
        ("enum ", "pub enum"),
        ("trait ", "pub trait"),
        ("type ", "pub type"),
        ("mod ", "pub mod"),
        ("static ", "pub static"),
    ];
    for i in 0..ctx.map.code_lines.len() {
        if ctx.map.line_in_test[i] {
            continue;
        }
        let trimmed = ctx.map.code_lines[i].trim_start().to_string();
        let Some(mut rest) = trimmed.strip_prefix("pub ") else {
            continue;
        };
        let mut was_const = false;
        loop {
            let before = rest;
            for q in ["const ", "async ", "unsafe "] {
                if let Some(r) = rest.strip_prefix(q) {
                    was_const |= q == "const ";
                    rest = r;
                }
            }
            if rest == before {
                break;
            }
        }
        let item = if let Some(&(_, item)) = KINDS.iter().find(|(k, _)| rest.starts_with(k)) {
            item
        } else if was_const && rest.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') {
            "pub const"
        } else {
            continue;
        };
        let mut j = i;
        let mut documented = false;
        while j > 0 {
            j -= 1;
            let above = ctx.map.raw_lines[j].trim_start();
            if above.starts_with("#[") || above.starts_with("#![") {
                continue; // attribute between docs and item
            }
            documented =
                above.starts_with("///") || above.starts_with("#[doc") || above.starts_with("/**");
            break;
        }
        if !documented {
            ctx.push(
                "missing-docs",
                i + 1,
                1,
                format!(
                    "{item} without a doc comment — library crates document their public surface"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Binding tracking shared by nondet-iter and atomic-ordering
// ---------------------------------------------------------------------------

/// Names bound (via `name: Type` annotations or `name = Type::…`
/// initializers) to a type whose identifier satisfies `pred`, anywhere
/// in the file. An over-approximation — a name is tracked for the
/// whole file — which is the conservative direction for both rules.
fn tracked_names(map: &FileMap, pred: fn(&str) -> bool) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in map.toks.iter().enumerate() {
        if t.kind == TokKind::Ident && pred(&t.text) {
            if let Some(n) = binding_name(map, i) {
                if !names.contains(&n) {
                    names.push(n);
                }
            }
        }
    }
    names
}

/// Walks back from the type identifier at token `t` to the name it is
/// bound to: over type-expression tokens until a single `:` (annotation
/// — field, param, or `let`) or a bare `=` (initializer), whose
/// preceding identifier is the binding name.
fn binding_name(map: &FileMap, t: usize) -> Option<String> {
    let toks = &map.toks;
    let mut j = t;
    loop {
        j = map.prev_code(j)?;
        match toks[j].kind {
            TokKind::Punct => match toks[j].text.chars().next()? {
                ':' => {
                    if let Some(p) = map.prev_code(j) {
                        if toks[p].is_punct(':') {
                            j = p; // `::` path separator — keep walking
                            continue;
                        }
                    }
                    let p = map.prev_code(j)?;
                    return (toks[p].kind == TokKind::Ident).then(|| toks[p].text.clone());
                }
                '=' => {
                    let p = map.prev_code(j)?;
                    if toks[p].kind == TokKind::Punct {
                        return None; // `==`, `=>`, compound assignment…
                    }
                    return (toks[p].kind == TokKind::Ident).then(|| toks[p].text.clone());
                }
                '<' | '>' | '&' | ',' | '(' | ')' | '[' | ']' => {}
                _ => return None,
            },
            TokKind::Ident | TokKind::Lifetime => {}
            _ => return None,
        }
    }
}

// ---------------------------------------------------------------------------
// nondet-iter
// ---------------------------------------------------------------------------

const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

const SORT_METHODS: [&str; 7] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Consumers whose result is independent of iteration order. `sum` is
/// deliberately absent: float addition is not associative, so summing
/// in hash order is itself a determinism hazard.
const ORDER_FREE_CONSUMERS: [&str; 5] = ["count", "min", "max", "all", "any"];

/// Collecting back into a keyed or ordered container erases the
/// iteration order.
const CANON_COLLECTS: [&str; 4] = ["HashMap", "HashSet", "BTreeMap", "BTreeSet"];

fn rule_nondet_iter(ctx: &mut Ctx<'_>) {
    if ctx.allowlisted("nondet-iter") {
        return;
    }
    let map = ctx.map;
    let names = tracked_names(map, |s| s == "HashMap" || s == "HashSet");
    if names.is_empty() {
        return;
    }
    let is_tracked = |i: usize| {
        map.toks[i].kind == TokKind::Ident && names.iter().any(|n| n == &map.toks[i].text)
    };
    let mut sites: Vec<(usize, String)> = Vec::new();
    for i in 0..map.toks.len() {
        if map.toks[i].is_comment() || map.tok_in_test(i) {
            continue;
        }
        // `name.iter()`-family call on a tracked receiver.
        if is_tracked(i) {
            if let Some((m, name)) = iter_method_after(map, i) {
                sites.push((m, name));
            }
        }
        // `for pat in [&][mut][self.]name { … }`.
        if map.toks[i].is_ident("in") {
            if let Some(n) = for_loop_source(map, i) {
                if is_tracked(n) && map.next_code(n).is_some_and(|b| map.toks[b].is_punct('{')) {
                    sites.push((n, map.toks[n].text.clone()));
                }
            }
        }
        // `.extend(name)` / `.chain(name)` draining a tracked map/set.
        if map.toks[i].is_punct('.') {
            if let Some(m) = map.next_code(i) {
                if map.toks[m].is_ident("extend") || map.toks[m].is_ident("chain") {
                    if let Some(n) = bare_call_arg(map, m) {
                        if is_tracked(n) {
                            sites.push((m, map.toks[n].text.clone()));
                        }
                    }
                }
            }
        }
    }
    sites.sort_by_key(|&(i, _)| i);
    sites.dedup_by_key(|&mut (i, _)| i);
    for (site, name) in sites {
        if sanctioned(map, site) {
            continue;
        }
        let t = &map.toks[site];
        ctx.push(
            "nondet-iter",
            t.line,
            t.col,
            format!(
                "iteration over hash-ordered `{name}` escapes without canonicalization — sort \
                 before emitting, collect into a keyed/ordered container, or justify the site \
                 with an inline tidy allow"
            ),
        );
    }
}

/// If token `i` (a tracked name) is the receiver of an
/// iteration-family method call — `name.keys(`, `name[k].iter(` — the
/// method token index and the receiver name.
fn iter_method_after(map: &FileMap, i: usize) -> Option<(usize, String)> {
    let mut j = map.next_code(i)?;
    if map.toks[j].is_punct('[') {
        // Skip one index group.
        let mut depth = 1usize;
        while depth > 0 {
            j = map.next_code(j)?;
            if map.toks[j].is_punct('[') {
                depth += 1;
            } else if map.toks[j].is_punct(']') {
                depth -= 1;
            }
        }
        j = map.next_code(j)?;
    }
    if !map.toks[j].is_punct('.') {
        return None;
    }
    let m = map.next_code(j)?;
    if !ITER_METHODS.contains(&map.toks[m].text.as_str()) {
        return None;
    }
    let paren = map.next_code(m)?;
    map.toks[paren].is_punct('(').then(|| (m, map.toks[i].text.clone()))
}

/// For an `in` keyword token, the token index of the loop source name:
/// skips `&`, `mut`, `self`, and `.` prefix tokens.
fn for_loop_source(map: &FileMap, in_tok: usize) -> Option<usize> {
    let mut j = map.next_code(in_tok)?;
    loop {
        let t = &map.toks[j];
        if t.is_punct('&') || t.is_punct('.') || t.is_ident("mut") || t.is_ident("self") {
            j = map.next_code(j)?;
        } else {
            break;
        }
    }
    (map.toks[j].kind == TokKind::Ident).then_some(j)
}

/// For a method token `m` (e.g. `extend`), the single bare-name call
/// argument: `(` `[&][mut][self.]name` `)`.
fn bare_call_arg(map: &FileMap, m: usize) -> Option<usize> {
    let paren = map.next_code(m)?;
    if !map.toks[paren].is_punct('(') {
        return None;
    }
    let mut j = map.next_code(paren)?;
    loop {
        let t = &map.toks[j];
        if t.is_punct('&') || t.is_punct('.') || t.is_ident("mut") || t.is_ident("self") {
            j = map.next_code(j)?;
        } else {
            break;
        }
    }
    if map.toks[j].kind != TokKind::Ident {
        return None;
    }
    let close = map.next_code(j)?;
    map.toks[close].is_punct(')').then_some(j)
}

/// Whether a `nondet-iter` site is canonicalized within its statement
/// window (its own statement plus the next one): a sort-family call, a
/// collect into a keyed/ordered container, an order-free consumer, or
/// an enclosing function whose name declares it a canonicalization
/// site.
fn sanctioned(map: &FileMap, site: usize) -> bool {
    if let Some(f) = map.enclosing_fn(site) {
        if f.name.contains("sorted") || f.name.contains("canonical") {
            return true;
        }
    }
    let (a, b) = map.statement_window(site);
    for j in a..b {
        let t = &map.toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        let after_dot = map.prev_code(j).is_some_and(|p| map.toks[p].is_punct('.'));
        if after_dot && SORT_METHODS.contains(&t.text.as_str()) {
            return true;
        }
        if after_dot
            && ORDER_FREE_CONSUMERS.contains(&t.text.as_str())
            && map.next_code(j).is_some_and(|n| map.toks[n].is_punct('('))
        {
            return true;
        }
        if t.is_ident("collect") && collect_target_is_canonical(map, j) {
            return true;
        }
    }
    false
}

/// Whether a `collect` token is turbofished to a keyed/ordered
/// container: `collect::<HashMap<_, _>>(…)` and friends.
fn collect_target_is_canonical(map: &FileMap, collect_tok: usize) -> bool {
    let mut j = collect_tok;
    for expect in [':', ':', '<'] {
        let Some(n) = map.next_code(j) else { return false };
        if !map.toks[n].is_punct(expect) {
            return false;
        }
        j = n;
    }
    // First identifier of the turbofish path (skipping path segments).
    for _ in 0..8 {
        let Some(n) = map.next_code(j) else { return false };
        let t = &map.toks[n];
        if t.kind == TokKind::Ident {
            if CANON_COLLECTS.contains(&t.text.as_str()) {
                return true;
            }
            // `std::collections::HashMap` — keep walking the path.
            j = n;
            continue;
        }
        if t.is_punct(':') {
            j = n;
            continue;
        }
        return false;
    }
    false
}

// ---------------------------------------------------------------------------
// atomic-ordering
// ---------------------------------------------------------------------------

const ATOMIC_METHODS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
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

/// The only modules where `SeqCst` may appear (with justification):
/// the portfolio/pool synchronization cores and the obs crate.
fn seqcst_scope(path: &str) -> bool {
    path == "crates/core/src/parallel.rs"
        || path == "crates/core/src/pool.rs"
        || path.starts_with("crates/obs/src/")
}

fn rule_atomic_ordering(ctx: &mut Ctx<'_>) {
    if ctx.allowlisted("atomic-ordering") {
        return;
    }
    let map = ctx.map;
    let names = tracked_names(map, |s| s.starts_with("Atomic"));
    if names.is_empty() {
        return;
    }
    let mut findings: Vec<(usize, usize, String)> = Vec::new();
    for i in 0..map.toks.len() {
        let t = &map.toks[i];
        if t.kind != TokKind::Ident || !names.iter().any(|n| n == &t.text) || map.tok_in_test(i) {
            continue;
        }
        let Some(dot) = map.next_code(i) else { continue };
        if !map.toks[dot].is_punct('.') {
            continue;
        }
        let Some(m) = map.next_code(dot) else { continue };
        if !ATOMIC_METHODS.contains(&map.toks[m].text.as_str()) {
            continue;
        }
        let Some(open) = map.next_code(m) else { continue };
        if !map.toks[open].is_punct('(') {
            continue;
        }
        let args = call_args_range(map, open);
        let mut has_ordering = false;
        let mut seqcst_at: Option<usize> = None;
        for j in args.clone() {
            if map.toks[j].is_ident("Ordering")
                && map.next_code(j).is_some_and(|n| map.toks[n].is_punct(':'))
            {
                has_ordering = true;
            }
            if map.toks[j].is_ident("SeqCst") {
                seqcst_at = Some(j);
            }
        }
        let (line, col, method) = (t.line, t.col, map.toks[m].text.clone());
        if !has_ordering {
            findings.push((
                line,
                col,
                format!(
                    "atomic `{method}` on `{}` without an explicit `Ordering` — name the \
                     ordering at the call site so the synchronization contract is auditable",
                    t.text
                ),
            ));
        } else if let Some(sq) = seqcst_at {
            if !seqcst_scope(ctx.path) {
                findings.push((
                    line,
                    col,
                    format!(
                        "`SeqCst` on `{}.{method}` outside `core::{{parallel, pool}}` and \
                         `obs` — use acquire/release (or relaxed) orderings, or move the \
                         synchronization into the sanctioned modules",
                        t.text
                    ),
                ));
            } else if !seqcst_justified(map, map.toks[sq].line) {
                findings.push((
                    line,
                    col,
                    format!(
                        "`SeqCst` on `{}.{method}` without a nearby `SeqCst:` justification \
                         comment — state why sequential consistency is required",
                        t.text
                    ),
                ));
            }
        }
    }
    for (line, col, msg) in findings {
        ctx.push("atomic-ordering", line, col, msg);
    }
}

/// Token range of a call's arguments, from the token after `open` to
/// its matching `)`.
fn call_args_range(map: &FileMap, open: usize) -> std::ops::Range<usize> {
    let mut depth = 1usize;
    let mut j = open;
    while depth > 0 {
        j += 1;
        if j >= map.toks.len() {
            break;
        }
        if map.toks[j].is_punct('(') {
            depth += 1;
        } else if map.toks[j].is_punct(')') {
            depth -= 1;
        }
    }
    open + 1..j
}

/// Whether a comment containing `SeqCst:` overlaps lines
/// `[line - 3, line]`.
fn seqcst_justified(map: &FileMap, line: usize) -> bool {
    comment_near(map, line, 3, "SeqCst:")
}

fn comment_near(map: &FileMap, line: usize, above: usize, needle: &str) -> bool {
    map.toks.iter().any(|t| {
        t.is_comment() && t.text.contains(needle) && {
            let last = t.line + t.text.matches('\n').count();
            t.line <= line && last + above >= line
        }
    })
}

// ---------------------------------------------------------------------------
// unsafe-safety
// ---------------------------------------------------------------------------

fn rule_unsafe_safety(ctx: &mut Ctx<'_>) {
    if ctx.allowlisted("unsafe-safety") {
        return;
    }
    let map = ctx.map;
    // `unsafe impl` blocks with a SAFETY comment cover the unsafe fns
    // and blocks they contain: the impl-level comment justifies the
    // whole contract (the `GlobalAlloc` impl in `obs::alloc` is the
    // canonical case).
    let mut covered: Vec<(usize, usize)> = Vec::new();
    for i in 0..map.toks.len() {
        if !map.toks[i].is_ident("unsafe") || map.tok_in_test(i) {
            continue;
        }
        if covered.iter().any(|&(a, b)| a < i && i < b) {
            continue;
        }
        let justified = safety_comment_before(map, i);
        let is_impl = map.next_code(i).is_some_and(|n| map.toks[n].is_ident("impl"));
        if is_impl && justified {
            if let Some(open) = (i..map.toks.len()).find(|&j| map.toks[j].is_punct('{')) {
                covered.push((open, map.brace_partner(open).unwrap_or(map.toks.len())));
            }
            continue;
        }
        if !justified {
            let t = &map.toks[i];
            let what = if is_impl { "`unsafe impl`" } else { "`unsafe` code" };
            ctx.push(
                "unsafe-safety",
                t.line,
                t.col,
                format!(
                    "{what} without a `// SAFETY:` comment — state the invariant that makes \
                     this sound directly above the unsafe site"
                ),
            );
        }
    }
}

/// Whether an `unsafe` token at index `i` is preceded by a SAFETY
/// comment: either a comment mentioning `SAFETY:` within the two lines
/// above, or — walking back over attributes, visibility, and qualifier
/// tokens — the nearest comment run contains one.
fn safety_comment_before(map: &FileMap, i: usize) -> bool {
    if comment_near(map, map.toks[i].line, 2, "SAFETY:") {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &map.toks[j];
        if t.is_comment() {
            // Check the whole contiguous comment run.
            let mut k = j;
            loop {
                if map.toks[k].text.contains("SAFETY:") {
                    return true;
                }
                if k == 0 || !map.toks[k - 1].is_comment() {
                    return false;
                }
                k -= 1;
            }
        }
        if t.is_punct(']') {
            // Skip an attribute group: back to its `#`.
            while j > 0 && !map.toks[j].is_punct('#') {
                j -= 1;
            }
            continue;
        }
        let qualifier = matches!(t.text.as_str(), "pub" | "const" | "async" | "extern" | "crate")
            && t.kind == TokKind::Ident;
        if qualifier || t.kind == TokKind::Str || t.is_punct('(') || t.is_punct(')') {
            continue;
        }
        return false;
    }
    false
}

// ---------------------------------------------------------------------------
// crate-layering
// ---------------------------------------------------------------------------

/// The declared crate DAG, lowest layer first. An edge is legal only
/// from a higher layer to a strictly lower one; same-layer crates are
/// independent by construction. Note the deviation from the paper's
/// pipeline sketch: `core` sits *above* `anonymize` because it consumes
/// the `Anonymizer` trait — see DESIGN.md §13.
const LAYERS: [(&str, u8); 10] = [
    ("obs", 0),
    ("relation", 1),
    ("datagen", 2),
    ("constraints", 3),
    ("anonymize", 3),
    ("metrics", 3),
    ("core", 4),
    ("bench", 5),
    ("cli", 5),
    ("tidy", 5),
];

fn layer_of(name: &str) -> Option<u8> {
    LAYERS.iter().find(|&&(n, _)| n == name).map(|&(_, l)| l)
}

/// The crate a workspace-relative path belongs to, and its layer. The
/// root `src/` (the `diva-repro` facade) sits above everything.
fn crate_of(path: &str) -> Option<(&str, u8)> {
    if path.starts_with("src/") {
        return Some(("diva-repro", u8::MAX));
    }
    let name = path.strip_prefix("crates/")?.split('/').next()?;
    layer_of(name).map(|l| (name, l))
}

fn rule_crate_layering(ctx: &mut Ctx<'_>) {
    if ctx.allowlisted("crate-layering") {
        return;
    }
    let Some((current, current_layer)) = crate_of(ctx.path) else {
        return;
    };
    let map = ctx.map;
    for (i, t) in map.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || map.tok_in_test(i) {
            continue;
        }
        let Some(target) = t.text.strip_prefix("diva_") else {
            continue;
        };
        let Some(target_layer) = layer_of(target) else {
            continue;
        };
        if target == current || target_layer < current_layer {
            continue;
        }
        ctx.push(
            "crate-layering",
            t.line,
            t.col,
            format!(
                "`diva_{target}` (layer {target_layer}) referenced from `{current}` (layer \
                 {current_layer}) inverts the declared crate DAG — depend strictly downward \
                 (test code may invert via dev-dependencies)"
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// unused-allow
// ---------------------------------------------------------------------------

impl Ctx<'_> {
    /// Runs last: any allow directive that suppressed nothing is itself
    /// a violation. Directives inside `#[cfg(test)]` code are exempt
    /// (test code is not scanned, so they can never be "used").
    fn rule_unused_allow(&mut self) {
        let stale: Vec<(usize, String, bool)> = self
            .allows
            .sites
            .iter()
            .filter(|s| !s.used && !s.in_test)
            .map(|s| (s.line, s.rule.clone(), RULES.contains(&s.rule.as_str())))
            .collect();
        for (line, rule, known) in stale {
            let msg = if known {
                format!("allow directive for `{rule}` suppresses nothing — remove it")
            } else {
                format!("allow directive names unknown rule `{rule}` — remove or fix it")
            };
            self.out.push(Violation {
                file: self.path.to_string(),
                line,
                col: 1,
                rule: "unused-allow",
                msg,
            });
        }
    }
}
