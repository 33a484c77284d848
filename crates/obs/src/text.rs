//! The one scanner under every reader of text this system did not write in
//! the same process: DSN documents (`sl-dsn`), expressions (`sl-expr`) and
//! JSON snapshots ([`crate::json`]). Each grammar keeps its own tokens,
//! errors and messages; the cursor owns position and line tracking,
//! whitespace and comments, and the single-quote rule they share. The one
//! `*`/`?` glob matcher ([`glob_match`]) lives here too.

/// A forward-only position in a `&str`, with the 1-based line it is on.
///
/// The position only ever rests on a character boundary — [`Cursor::bump`]
/// steps over a whole character and [`Cursor::take_while`] stops only at an
/// ASCII byte — so every slice the cursor hands out is valid and no input
/// can make it panic.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`, on line 1.
    #[inline]
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Cursor {
            text,
            pos: 0,
            line: 1,
        }
    }

    /// Byte offset of the next unread character.
    #[inline]
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// 1-based line of the next unread character.
    #[inline]
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }

    /// True when every character has been read.
    #[inline]
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.pos == self.text.len()
    }

    /// The unread text.
    #[inline]
    #[must_use]
    pub fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// The text read since `start`, an earlier [`Cursor::pos`].
    #[inline]
    #[must_use]
    pub fn since(&self, start: usize) -> &'a str {
        &self.text[start..self.pos]
    }

    /// The next byte, unread.
    #[inline]
    #[must_use]
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Read one character.
    #[inline]
    pub fn bump(&mut self) -> Option<char> {
        let b = self.peek()?;
        if b.is_ascii() {
            self.pos += 1;
            self.line += usize::from(b == b'\n');
            return Some(char::from(b));
        }
        let c = self.rest().chars().next()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Read the next character if it starts with byte `b`.
    #[inline]
    pub fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.bump();
        }
        hit
    }

    /// Read `s` if the unread text starts with it.
    #[inline]
    pub fn eat_str(&mut self, s: &str) -> bool {
        let hit = self.rest().starts_with(s);
        if hit {
            self.pos += s.len();
            self.line += s.bytes().filter(|&b| b == b'\n').count();
        }
        hit
    }

    /// Skip spaces, tabs and line breaks, and with `comment` every run from
    /// that byte to the end of its line.
    #[inline]
    pub fn skip_ws(&mut self, comment: Option<u8>) {
        loop {
            self.skip(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'));
            if comment.is_none() || self.peek() != comment {
                return;
            }
            while self.bump().is_some_and(|c| c != '\n') {}
        }
    }

    /// Read the longest run of ASCII bytes that satisfy `pred`.
    #[inline]
    pub fn take_while(&mut self, pred: impl FnMut(u8) -> bool) -> &'a str {
        let start = self.pos;
        self.skip(pred);
        self.since(start)
    }

    /// [`Cursor::take_while`] without the slice.
    #[inline]
    fn skip(&mut self, mut pred: impl FnMut(u8) -> bool) {
        while let Some(b) = self.peek().filter(|&b| b.is_ascii() && pred(b)) {
            self.pos += 1;
            self.line += usize::from(b == b'\n');
        }
    }

    /// At a `'`: read one single-quoted segment, in which `''` stands for
    /// one quote, and return its body still escaped ([`unescape_quotes`]
    /// undoes that). `None` when the text ends before the closing quote;
    /// the cursor is then at the end.
    #[inline]
    pub fn quoted(&mut self) -> Option<&'a str> {
        self.bump();
        let start = self.pos;
        loop {
            if self.bump()? == '\'' && !self.eat(b'\'') {
                return Some(&self.text[start..self.pos - 1]);
            }
        }
    }
}

/// The text a single-quoted body stands for: each `''` is one `'`.
#[must_use]
pub fn unescape_quotes(body: &str) -> String {
    body.replace("''", "'")
}

/// Does `text` match `pattern`, where `*` stands for any run of characters
/// (a `*` in the pattern is always the wildcard, never a literal) and `?`
/// for any one? An iterative two-pointer walk over the two strings' byte
/// offsets, each step one whole character, backtracking to the last `*`
/// on a mismatch: O(n·m) worst case, no allocation. The expression
/// language's `matches` and the broker's sensor-name filter both call it.
#[must_use]
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let (mut p, mut t) = (0usize, 0usize);
    // Just after the last `*` seen, and where its run currently ends.
    let mut star: Option<(usize, usize)> = None;
    while let Some(tc) = text[t..].chars().next() {
        match pattern[p..].chars().next() {
            Some('*') => {
                p += 1;
                star = Some((p, t));
            }
            Some(pc) if pc == '?' || pc == tc => {
                p += pc.len_utf8();
                t += tc.len_utf8();
            }
            _ => {
                // Let the last `*` swallow one more character, and retry.
                let Some((after_star, run_end)) = star else {
                    return false;
                };
                let swallowed = text[run_end..].chars().next().map_or(0, char::len_utf8);
                (p, t) = (after_star, run_end + swallowed);
                star = Some((p, t));
            }
        }
    }
    pattern[p..].chars().all(|c| c == '*')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_lines_and_skips_comments() {
        let mut c = Cursor::new("  # note\n\tword_1 rest");
        c.skip_ws(Some(b'#'));
        assert_eq!((c.pos(), c.line()), (10, 2));
        assert_eq!(
            c.take_while(|b| b.is_ascii_alphanumeric() || b == b'_'),
            "word_1"
        );
        c.skip_ws(None);
        assert!(c.eat_str("rest") && c.at_end());
        assert_eq!(c.bump(), None);
    }

    #[test]
    fn bump_steps_over_whole_characters() {
        let mut c = Cursor::new("日x");
        assert_eq!(c.take_while(|_| true), "");
        assert_eq!(c.bump(), Some('日'));
        assert_eq!(c.since(0), "日");
        assert!(c.eat(b'x'));
    }

    #[test]
    fn quoted_segments_double_their_quotes() {
        let mut c = Cursor::new("'it''s', 'open");
        assert_eq!(c.quoted(), Some("it''s"));
        assert_eq!(unescape_quotes("it''s"), "it's");
        assert!(c.eat(b','));
        c.skip_ws(None);
        assert_eq!(c.quoted(), None);
        assert!(c.at_end());
    }

    #[test]
    fn a_star_in_the_pattern_is_always_the_wildcard() {
        // A `*` in the text is no reason to match the pattern's `*` as a
        // literal: the star may still swallow it.
        assert!(glob_match("*a", "*ba"));
        assert!(glob_match("*a", "xba"));
        assert!(glob_match("?*", "*"));
        assert!(glob_match("日*本", "日x本"));
        assert!(!glob_match("日?", "日"));
    }
}
