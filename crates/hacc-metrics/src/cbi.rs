//! A miniature Code Base Investigator: measures the source lines of code
//! a build compiles from the actual files of this repository and extracts
//! named regions (functions, impl blocks, match arms) so per-platform
//! source sets can be built from *measured* line counts rather than
//! copied numbers (Table 2, Figure 13).

/// Counts source lines of code in Rust text: non-blank lines that are
/// not pure comments (`//`, `///`, `//!`) and not inside block comments.
/// Matches the paper's SLOC convention ("excluding whitespace and
/// comments").
pub(crate) fn count_sloc(text: &str) -> u32 {
    let mut in_block_comment = false;
    let mut sloc = 0u32;
    for line in text.lines() {
        let t = line.trim();
        if in_block_comment {
            if let Some(end) = t.find("*/") {
                in_block_comment = false;
                let rest = t[end + 2..].trim();
                if !rest.is_empty() && !rest.starts_with("//") {
                    sloc += 1;
                }
            }
            continue;
        }
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        if t.starts_with("/*") {
            match t.find("*/") {
                None => in_block_comment = true,
                Some(end) => {
                    let rest = t[end + 2..].trim();
                    if !rest.is_empty() && !rest.starts_with("//") {
                        sloc += 1;
                    }
                }
            }
            continue;
        }
        sloc += 1;
    }
    sloc
}

/// Byte index just past the comment, string or char literal that starts
/// at byte `i` of `text` (a line comment stops before its newline), or
/// `None` when none starts there. A lifetime (`'a`) is not a literal.
fn skip_literal(text: &str, i: usize) -> Option<usize> {
    let b = text.as_bytes();
    let past = |from: usize, pat: &str| {
        let at = text.get(from..).and_then(|t| t.find(pat));
        at.map_or(b.len(), |p| from + p + pat.len())
    };
    match &b[i..] {
        [b'/', b'/', ..] => Some(text[i..].find('\n').map_or(b.len(), |p| i + p)),
        [b'/', b'*', ..] => Some(past(i + 2, "*/")),
        [b'"', ..] => {
            // A raw string ends at a quote and as many hashes as opened it.
            let hashes = b[..i].iter().rev().take_while(|&&c| c == b'#').count();
            if i > hashes && b[i - hashes - 1] == b'r' {
                return Some(past(i + 1, &format!("\"{}", "#".repeat(hashes))));
            }
            let mut j = i + 1;
            while j < b.len() && b[j] != b'"' {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            Some((j + 1).min(b.len()))
        }
        [b'\'', b'\\', ..] => Some(past(i + 3, "'")),
        [b'\'', ..] => {
            let len = text[i + 1..].chars().next().map_or(1, char::len_utf8);
            (b.get(i + 1 + len) == Some(&b'\'')).then_some(i + 2 + len)
        }
        _ => None,
    }
}

/// Byte length of the item at the start of `text`: through its
/// brace-balanced body (and a `;` right after it), or through its `;`
/// when it has no body. Brackets inside comments, strings and char
/// literals do not count. `None` when the item never closes.
fn item_len(text: &str) -> Option<usize> {
    let b = text.as_bytes();
    let (mut i, mut depth) = (0, 0i64);
    while i < b.len() {
        if let Some(next) = skip_literal(text, i) {
            i = next;
            continue;
        }
        match b[i] {
            b'{' | b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'}' if depth == 1 => {
                // `use a::{b};` and `const C: S = S { … };` end at the `;`.
                let rest = text[i + 1..].trim_start();
                let semi = text.len() - rest.len() + 1;
                return Some(if rest.starts_with(';') { semi } else { i + 1 });
            }
            b'}' => depth -= 1,
            b';' if depth == 0 => return Some(i + 1),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Extracts the item on the line of the first match of `anchor` (e.g.
/// `"fn visa_butterfly"`), or `None` when the anchor is absent: how the
/// mini-CBI attributes specialized code (the vISA path, the broadcast
/// restructure) to its configuration set without marker comments.
pub(crate) fn extract_region(text: &str, anchor: &str) -> Option<String> {
    let start = text[..text.find(anchor)?].rfind('\n').map_or(0, |p| p + 1);
    let len = item_len(&text[start..])?;
    Some(text[start..start + len].to_string())
}

/// The text a build compiles: `text` with every `#[cfg(test)]` item
/// removed — a `mod t { … }` through its balanced body, a `mod t;`
/// through its `;`. The attribute matches only as code at the start of a
/// line, never inside a string literal or a comment.
pub fn strip_tests(text: &str) -> String {
    const ATTR: &str = "#[cfg(test)]";
    let b = text.as_bytes();
    let (mut out, mut kept, mut i, mut line_start) = (String::new(), 0, 0, true);
    while i < b.len() {
        if let Some(next) = skip_literal(text, i) {
            (i, line_start) = (next, false);
        } else if line_start && text[i..].starts_with(ATTR) {
            out.push_str(&text[kept..i]);
            i += item_len(&text[i..]).unwrap_or(text.len() - i);
            (kept, line_start) = (i, false);
        } else {
            line_start = b[i] == b'\n' || (line_start && b[i].is_ascii_whitespace());
            i += 1;
        }
    }
    out + &text[kept..]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sloc_skips_blanks_and_comments() {
        let text = r#"
// a comment
fn foo() {
    let x = 1; // trailing comment counts the line

    /* block
       comment */
    x + 1
}
/// doc comment
"#;
        assert_eq!(count_sloc(text), 4); // fn, let, x+1, }
    }

    #[test]
    fn block_comment_with_trailing_code_counts() {
        let text = "a();\n/* c */ b();\n";
        assert_eq!(count_sloc(text), 2);
    }

    #[test]
    fn extracts_balanced_function() {
        let text = r#"
fn other() { 1 }

fn target(x: i32) -> i32 {
    if x > 0 {
        x
    } else {
        -x
    }
}

fn after() {}
"#;
        let region = extract_region(text, "fn target").unwrap();
        assert!(region.starts_with("fn target"));
        assert!(region.ends_with('}'));
        assert!(region.contains("else"));
        assert!(!region.contains("after"));
        assert_eq!(count_sloc(&region), 7);
    }

    #[test]
    fn braces_in_strings_and_comments_are_ignored() {
        let text = r##"
fn tricky() {
    let s = "not a brace: { {";
    let r = r#"raw " { "#;
    // also not: }
    s.len()
}
"##;
        let region = extract_region(text, "fn tricky").unwrap();
        assert!(region.trim_end().ends_with('}'));
        assert!(region.contains("s.len()"));
    }

    #[test]
    fn braces_and_quotes_in_char_literals_are_ignored() {
        for lit in [r"'x'", r"'\''", r#"'"'"#, "'{'", "'}'", "'→'", r"'\u{7D}'"] {
            let text = format!(
                "fn lit<'a>(s: &'a str) -> bool {{\n    'outer: loop {{\n        \
                 break 'outer;\n    }}\n    s.starts_with({lit})\n}}\n\nfn after() {{}}\n"
            );
            let region = extract_region(&text, "fn lit").unwrap();
            assert!(region.ends_with("\n}"), "{lit}: {region:?}");
            assert_eq!(count_sloc(&region), 6, "{lit}");
        }
    }

    #[test]
    fn missing_anchor_is_none() {
        assert!(extract_region("fn a() {}", "fn missing").is_none());
    }

    #[test]
    fn test_items_are_stripped_through_their_body_or_semicolon() {
        let text = "pub mod a;\n#[cfg(test)]\nmod buffer_tests;\nfn kept() {}\n\
                    #[cfg(test)]\nmod tests {\n    fn t() { let c = '}'; let s = \"}\"; }\n}\n\
                    fn also_kept() {}\n    #[cfg(test)]\n    use super::{x, y};\nfn last() {}\n";
        let compiled = strip_tests(text);
        for gone in ["buffer_tests", "mod tests", "let c", "use super"] {
            assert!(!compiled.contains(gone), "{gone} survived: {compiled:?}");
        }
        for kept in ["pub mod a;", "fn kept", "fn also_kept", "fn last"] {
            assert!(compiled.contains(kept), "{kept} lost: {compiled:?}");
        }
        assert_eq!(count_sloc(&compiled), 4);
    }

    #[test]
    fn the_attribute_in_a_string_or_comment_is_not_stripped() {
        let text = "fn a() {\n    let s = \"\n#[cfg(test)]\nmod x {}\";\n}\n\
                    // #[cfg(test)]\n/*\n#[cfg(test)]\n*/\nfn b() {}\nlet t = \"#[cfg(test)]\";\n";
        assert_eq!(strip_tests(text), text);
    }

    #[test]
    fn measures_own_sources() {
        // The mini-CBI must be able to measure this very repository.
        let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/pp.rs");
        let text = std::fs::read_to_string(here).unwrap();
        let sloc = count_sloc(&strip_tests(&text));
        assert!(sloc > 30, "pp.rs should have substantial SLOC, got {sloc}");
        assert!(sloc < count_sloc(&text), "pp.rs has a test module");
        let region = extract_region(&text, "pub fn performance_portability").unwrap();
        assert!(
            (10..30).contains(&count_sloc(&region)),
            "function region SLOC"
        );
    }
}
