//! `expected.txt`: the hand-written answers. A program whose question has
//! no line there cannot be checked, so asking for one is an error, not a
//! pass.

const TEXT: &str = include_str!("../expected.txt");

/// The written result `expected.txt` records for `question`.
pub fn answer(question: &str) -> Result<&'static str, String> {
    TEXT.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| l.split_once(" => "))
        .find(|(q, _)| q.trim() == question)
        .map(|(_, a)| a.trim())
        .ok_or_else(|| format!("expected.txt has no answer for `{question}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_are_found_and_gaps_are_errors() {
        assert_eq!(answer("(fib 30)").unwrap(), "832040");
        assert_eq!(answer("(boyer-run 1)").unwrap(), "#t");
        assert!(answer("(fib 31)").is_err());
    }
}
