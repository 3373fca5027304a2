//! **wire-exhaustiveness**: the wire enums (`HttpMsg`, its zero-copy twin
//! `HttpMsgRef`, `AuditEvent`) are the protocol's whole vocabulary; a
//! handler that dispatches on them must name every variant, or a message
//! added for a new protocol (ROADMAP item 3) compiles straight into a
//! silent `_ =>` arm and is half-wired.
//!
//! The rule parses the enum declarations wherever they live, then checks
//! every `match` in the encoder/decoder/handler crates that *dispatches*
//! on the enum — i.e. names two or more of its variants in arm patterns.
//! Such a match must mention every declared variant by name; a catch-all
//! arm may remain (outer enums and guard fallthrough need one) but cannot
//! stand in for a missing variant.

use std::collections::BTreeSet;

use crate::engine::SourceFile;
use crate::lexer::{Delim, TokenKind};
use crate::Diagnostic;

pub(crate) const RULE: &str = "wire-exhaustiveness";

/// The enums whose dispatch must be total.
const WIRE_ENUMS: &[&str] = &["HttpMsg", "HttpMsgRef", "AuditEvent"];

/// Where dispatch sites are checked: the wire codec, the simulated and
/// real node handlers, the auditor, and the enum-owning crate itself.
/// Reporting/fuzz crates legitimately match a subset behind a catch-all.
pub(crate) fn match_scope(path: &str) -> bool {
    path.starts_with("crates/proto/src/")
        || path.starts_with("crates/httpsim/src/")
        || path.starts_with("crates/net/src/")
        || path.starts_with("crates/audit/src/")
        || path.starts_with("crates/types/src/")
}

/// One parsed wire-enum declaration.
pub(crate) struct EnumDef {
    pub name: String,
    /// Variant names in declaration order.
    pub variants: Vec<String>,
}

/// Extracts declarations of the wire enums from one file.
pub(crate) fn enum_defs(file: &SourceFile<'_>) -> Vec<EnumDef> {
    let mut defs = Vec::new();
    for k in 0..file.len() {
        if file.s(k) != "enum" || !WIRE_ENUMS.contains(&file.s(k + 1)) || file.masked_at(k) {
            continue;
        }
        // Find the declaration body: the first brace group after the name
        // (skipping generics, which contain no braces).
        let mut j = k + 2;
        while j < file.len() && !matches!(file.kind(j), Some(TokenKind::Open(Delim::Brace))) {
            j = file.skip_group(j);
        }
        let Some(close) = file.partner_sig(j) else {
            continue;
        };
        let mut variants = Vec::new();
        let mut t = j + 1;
        while t < close {
            // Skip attributes on the variant.
            while file.s(t) == "#"
                && matches!(file.kind(t + 1), Some(TokenKind::Open(Delim::Bracket)))
            {
                t = file.skip_group(t + 1);
            }
            if t >= close {
                break;
            }
            if matches!(file.kind(t), Some(TokenKind::Ident)) {
                variants.push(file.s(t).to_string());
            }
            // To the `,` ending this variant (skipping payload groups).
            t += 1;
            while t < close && file.s(t) != "," {
                t = file.skip_group(t);
            }
            t += 1; // past the `,`
        }
        if !variants.is_empty() {
            defs.push(EnumDef {
                name: file.s(k + 1).to_string(),
                variants,
            });
        }
    }
    defs
}

/// Checks every dispatching `match` in `file` against the declarations.
pub(crate) fn check_matches(file: &SourceFile<'_>, defs: &[EnumDef]) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    if defs.is_empty() || !match_scope(file.path) {
        return findings;
    }
    for k in 0..file.len() {
        if file.s(k) != "match"
            || !matches!(file.kind(k), Some(TokenKind::Ident))
            || file.masked_at(k)
        {
            continue;
        }
        // The match body: first brace group after the scrutinee (struct
        // literals cannot appear unparenthesised there).
        let mut j = k + 1;
        while j < file.len() && !matches!(file.kind(j), Some(TokenKind::Open(Delim::Brace))) {
            j = file.skip_group(j);
        }
        let Some(close) = file.partner_sig(j) else {
            continue;
        };
        for def in defs {
            let mentioned = mentioned_variants(file, def, j + 1, close);
            if mentioned.len() < 2 {
                continue; // not a dispatch site for this enum
            }
            let missing: Vec<&str> = def
                .variants
                .iter()
                .map(String::as_str)
                .filter(|v| !mentioned.contains(*v))
                .collect();
            if !missing.is_empty() {
                findings.push(Diagnostic {
                    path: file.path.to_string(),
                    line: file.line(k),
                    rule: RULE,
                    message: format!(
                        "match dispatches on {} but never names variant(s) {}; \
                         they are unreachable or fall into a catch-all arm — \
                         name every variant so new wire messages cannot be \
                         half-wired",
                        def.name,
                        missing.join(", "),
                    ),
                });
            }
        }
    }
    findings
}

/// The set of `Enum::Variant` names mentioned anywhere in the arm patterns
/// (or guards) of the match body `[from, to)`.
fn mentioned_variants<'a>(
    file: &SourceFile<'_>,
    def: &'a EnumDef,
    from: usize,
    to: usize,
) -> BTreeSet<&'a str> {
    let mut mentioned = BTreeSet::new();
    let mut t = from;
    while t < to {
        // Pattern (plus guard) runs to the `=>` at the body's top level.
        let arm_depth = file.depth_at(t);
        let pat_start = t;
        while t < to && !(file.s(t) == "=" && file.s(t + 1) == ">" && file.depth_at(t) == arm_depth)
        {
            t = file.skip_group(t);
        }
        for p in pat_start..t.min(to) {
            if file.s(p) == def.name && file.s(p + 1) == ":" && file.s(p + 2) == ":" {
                if let Some(v) = def.variants.iter().find(|v| *v == file.s(p + 3)) {
                    mentioned.insert(v.as_str());
                }
            }
        }
        if t >= to {
            break;
        }
        t += 2; // past `=>`
                // The arm value: a brace group, or an expression up to the `,`.
        if matches!(file.kind(t), Some(TokenKind::Open(Delim::Brace))) {
            t = file.skip_group(t);
            if file.s(t) == "," {
                t += 1;
            }
        } else {
            while t < to && file.s(t) != "," {
                t = file.skip_group(t);
            }
            t += 1;
        }
    }
    mentioned
}
