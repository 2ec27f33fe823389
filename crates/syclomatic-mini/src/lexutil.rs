//! Small lexical helpers for the migration passes: identifier scanning,
//! balanced-delimiter extraction, and comment/string-aware search over
//! C-family source text.

/// True for characters that can appear in a C identifier.
#[inline]
pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Finds the next occurrence of `needle` at or after `from` that is a
/// whole token (not embedded in a longer identifier) and not inside a
/// string, character literal, or comment.
pub(crate) fn find_token(src: &str, needle: &str, from: usize) -> Option<usize> {
    let bytes = src.as_bytes();
    let mut i = from;
    while let Some(rel) = src[i..].find(needle) {
        let pos = i + rel;
        if in_code(src, pos) {
            let before_ok = pos == 0 || !is_ident_char(bytes[pos - 1] as char);
            let end = pos + needle.len();
            let after_ok = end >= src.len() || !is_ident_char(bytes[end] as char);
            // Only apply token boundaries when the needle itself looks
            // like an identifier.
            let is_word = needle.chars().all(is_ident_char);
            if !is_word || (before_ok && after_ok) {
                return Some(pos);
            }
        }
        i = pos + 1;
    }
    None
}

/// True when byte offset `pos` is in live code (not in a string literal,
/// char literal, line comment, or block comment). O(pos) scan — fine for
/// the kernel-sized inputs this tool handles.
fn in_code(src: &str, pos: usize) -> bool {
    #[derive(PartialEq)]
    enum St {
        Code,
        Str,
        Chr,
        Line,
        Block,
    }
    let mut st = St::Code;
    let mut prev = '\0';
    for (i, c) in src.char_indices() {
        if i >= pos {
            return st == St::Code;
        }
        st = match st {
            St::Code => match (prev, c) {
                (_, '"') => St::Str,
                (_, '\'') => St::Chr,
                ('/', '/') => St::Line,
                ('/', '*') => St::Block,
                _ => St::Code,
            },
            St::Str if c == '"' && prev != '\\' => St::Code,
            St::Chr if c == '\'' && prev != '\\' => St::Code,
            St::Line if c == '\n' => St::Code,
            St::Block if prev == '*' && c == '/' => St::Code,
            other => other,
        };
        prev = if prev == '\\' && c == '\\' { '\0' } else { c };
    }
    st == St::Code
}

/// Given `src[open]` is an opening delimiter (`(`, `{`, `[`, `<`),
/// returns the offset of the matching closer, respecting nesting and
/// skipping strings/comments.
pub fn matching(src: &str, open: usize) -> Option<usize> {
    let (o, c) = match src.as_bytes()[open] as char {
        '(' => ('(', ')'),
        '{' => ('{', '}'),
        '[' => ('[', ']'),
        '<' => ('<', '>'),
        _ => return None,
    };
    let mut depth = 0i64;
    for (i, ch) in src[open..].char_indices() {
        let pos = open + i;
        if !in_code(src, pos) {
            continue;
        }
        if ch == o {
            depth += 1;
        } else if ch == c {
            depth -= 1;
            if depth == 0 {
                return Some(pos);
            }
        }
    }
    None
}

/// Splits a C argument list (the text between parentheses) at top-level
/// commas.
pub(crate) fn split_args(args: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut cur = String::new();
    for c in args.chars() {
        match c {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' | '>' => depth -= 1,
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
                continue;
            }
            _ => {}
        }
        cur.push(c);
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Extracts the parameter *name* from a C declaration like
/// `const float *__restrict__ pos` → `pos`.
pub(crate) fn param_name(decl: &str) -> String {
    decl.trim_end_matches(' ')
        .rsplit(|c: char| !is_ident_char(c))
        .find(|s| !s.is_empty())
        .unwrap_or("")
        .to_string()
}

/// 1-based line number of a byte offset.
pub(crate) fn line_of(src: &str, pos: usize) -> usize {
    src[..pos.min(src.len())]
        .bytes()
        .filter(|&b| b == b'\n')
        .count()
        + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_search_respects_boundaries_and_comments() {
        let src = "int foo_bar; // foo\nfoo(1); \"foo\"; foo";
        let first = find_token(src, "foo", 0).unwrap();
        assert_eq!(&src[first..first + 4], "foo(");
        assert_eq!(find_token(src, "foo", first + 1), Some(src.len() - 3));
    }

    #[test]
    fn matching_parens_nest() {
        let src = "f(a, g(b, c), d) + 1";
        let close = matching(src, 1).unwrap();
        assert_eq!(&src[1..=close], "(a, g(b, c), d)");
    }

    #[test]
    fn split_args_handles_nesting() {
        let args = split_args("a, g(b, c), d[1], (x, y)");
        assert_eq!(args, vec!["a", "g(b, c)", "d[1]", "(x, y)"]);
    }

    #[test]
    fn param_names() {
        assert_eq!(param_name("const float *__restrict__ pos"), "pos");
        assert_eq!(param_name("int n"), "n");
        assert_eq!(param_name("float4 *out"), "out");
    }

    #[test]
    fn line_numbers() {
        let src = "a\nb\nc";
        assert_eq!(line_of(src, 0), 1);
        assert_eq!(line_of(src, 2), 2);
        assert_eq!(line_of(src, 4), 3);
    }
}
