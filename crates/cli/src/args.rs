//! The argument grammar of every `loupe` subcommand.
//!
//! Each subcommand is one [`Command`]: what it takes besides flags, and
//! a table of its flags with the metavariables of their values and
//! their help. [`parse`] reads a command line against that table only:
//! an unknown flag, a flag without its value and a flag given twice are
//! errors naming the word, returned before the command runs, and so is
//! a flag given without the flag it is read beside. `--help`
//! and `loupe help` render the same tables, so the help cannot drift
//! from what is parsed.

use std::str::FromStr;

/// A flag: its name, the metavariables of its values separated by
/// spaces (empty for a switch; `statics --explain` takes two), and its
/// help text.
pub type Flag = (&'static str, &'static str, &'static str);

/// What a command takes besides its flags.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Operands {
    None,
    /// At most one word, named by the metavariable (`analyze <app>`).
    One(&'static str),
    /// A command line to run: every word after `--`, or from the first
    /// word that is not a flag.
    Argv,
}

/// A subcommand: its grammar, its help and the function that runs it.
pub struct Command {
    /// As typed: `sweep`, or `cache stats` for a command of a group.
    pub name: &'static str,
    pub operands: Operands,
    pub about: &'static str,
    pub flags: &'static [Flag],
    /// Flags read only beside another: each flag here is an error
    /// unless one of the flags listed with it is given too.
    pub requires: &'static [(&'static str, &'static [&'static str])],
    pub run: fn(&Args) -> Result<(), String>,
}

/// What a command line asks for.
pub enum Parsed<'a> {
    /// Print this text and exit successfully.
    Help(String),
    Run(Args<'a>),
}

/// A command line read against its command's table.
pub struct Args<'a> {
    pub command: &'static Command,
    pub operands: Vec<&'a str>,
    flags: Vec<(&'static str, &'a [String])>,
}

impl<'a> Args<'a> {
    /// The values given to `flag`, `None` when it is absent.
    pub fn values(&self, flag: &str) -> Option<&'a [String]> {
        debug_assert!(
            self.command.flags.iter().any(|f| f.0 == flag),
            "`{flag}` is not in the table of `{}`",
            self.command.name
        );
        self.flags.iter().find(|f| f.0 == flag).map(|f| f.1)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.values(flag).is_some()
    }

    /// The value of `flag`, `None` when it is absent.
    pub fn get(&self, flag: &str) -> Option<&'a str> {
        self.values(flag)
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    /// The value of `flag` parsed as a `T`, `None` when it is absent.
    pub fn opt_num<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| v.parse().map_err(|_| format!("bad {flag}")))
            .transpose()
    }

    /// The value of `flag` parsed as a `T`, `default` when it is absent.
    pub fn num<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.opt_num(flag)?.unwrap_or(default))
    }
}

/// Reads `argv` (without the program name) against `commands`.
pub fn parse<'a>(commands: &'static [Command], argv: &'a [String]) -> Result<Parsed<'a>, String> {
    let name = argv.first().map_or("help", String::as_str);
    if matches!(name, "help" | "--help" | "-h") {
        return Ok(Parsed::Help(usage(commands)));
    }
    let group: Vec<&'static Command> = commands
        .iter()
        .filter(|c| c.name.split(' ').next() == Some(name))
        .collect();
    let (command, rest) = match group[..] {
        [] => return Err(format!("unknown command `{name}`\n{}", usage(commands))),
        [command] if command.name == name => (command, &argv[1..]),
        _ => {
            // A group (`cache`): the next word names the command.
            let sub = argv.get(1).map_or("", String::as_str);
            let subs: Vec<&str> = group.iter().map(|c| &c.name[name.len() + 1..]).collect();
            if sub == "--help" {
                return Ok(Parsed::Help(help(&group)));
            }
            let Some(i) = subs.iter().position(|s| *s == sub) else {
                let subs = subs.join(" | ");
                return Err(if sub.is_empty() || sub.starts_with('-') {
                    format!("{name}: need a subcommand: {subs}")
                } else {
                    format!("{name}: unknown subcommand `{sub}` ({subs})")
                });
            };
            (group[i], &argv[2..])
        }
    };

    let mut args = Args {
        command,
        operands: Vec::new(),
        flags: Vec::new(),
    };
    let cmd = command.name;
    let mut i = 0;
    while let Some(word) = rest.get(i).map(String::as_str) {
        i += 1;
        if word == "--help" {
            return Ok(Parsed::Help(help(&[command])));
        }
        if command.operands == Operands::Argv && (word == "--" || !word.starts_with('-')) {
            let start = if word == "--" { i } else { i - 1 };
            args.operands = rest[start..].iter().map(String::as_str).collect();
            break;
        }
        if !word.starts_with('-') {
            match command.operands {
                Operands::One(_) if args.operands.is_empty() => args.operands.push(word),
                _ => return Err(format!("{cmd}: unexpected argument `{word}`")),
            }
            continue;
        }
        let Some(&(flag, metavars, _)) = command.flags.iter().find(|f| f.0 == word) else {
            return Err(format!(
                "{cmd}: unknown flag `{word}` (see `loupe {cmd} --help`)"
            ));
        };
        if args.flags.iter().any(|f| f.0 == flag) {
            return Err(format!("{cmd}: {flag} given twice"));
        }
        let arity = metavars.split_whitespace().count();
        let values = &rest[i..rest.len().min(i + arity)];
        if let Some(next) = values.iter().find(|v| v.starts_with('-')) {
            return Err(format!("{cmd}: {flag} expects {metavars}, not `{next}`"));
        }
        if values.len() < arity {
            return Err(format!("{cmd}: {flag} expects {metavars}"));
        }
        args.flags.push((flag, values));
        i += arity;
    }
    for &(flag, needs) in command.requires {
        if args.has(flag) && !needs.iter().any(|need| args.has(need)) {
            return Err(format!("{cmd}: {flag} needs {}", needs.join(" or ")));
        }
    }
    Ok(Parsed::Run(args))
}

/// `loupe help`: every command's help.
pub fn usage(commands: &[Command]) -> String {
    let all: Vec<&Command> = commands.iter().collect();
    format!(
        "usage: loupe <command> [options]\n\ncommands:\n{}\n{}",
        help(&all),
        row(2, 31, "help", "this message")
    )
}

/// The help of `commands`: each one's synopsis and about line, then its
/// flags.
fn help(commands: &[&Command]) -> String {
    let mut lines = Vec::new();
    for c in commands {
        let synopsis = match c.operands {
            Operands::None => c.name.to_owned(),
            Operands::One(operand) => format!("{} {operand}", c.name),
            Operands::Argv => format!("{} -- <cmd> [args...]", c.name),
        };
        lines.push(row(2, 31, &synopsis, c.about));
        for (flag, metavars, text) in c.flags {
            lines.push(row(6, 38, format!("{flag} {metavars}").trim_end(), text));
        }
    }
    lines.join("\n")
}

/// One help row: `left` indented by `indent`, then `text` from column
/// `column`, wrapped at 86 columns.
fn row(indent: usize, column: usize, left: &str, text: &str) -> String {
    let mut out = format!("{:indent$}{left:<width$}", "", width = column - indent - 1);
    let mut width = out.chars().count();
    for word in text.split_whitespace() {
        let len = word.chars().count();
        if width + 1 + len > 86 && width >= column {
            out.push('\n');
            out.push_str(&" ".repeat(column - 1));
            width = column - 1;
        }
        out.push(' ');
        out.push_str(word);
        width += 1 + len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Misspelt flags that CI passes on purpose, requiring a rejection.
    const MISSPELT: [&str; 2] = ["--chek", "--valdate"];

    /// The errors CI requires, in an `if` around the command, of a flag
    /// given without the flag it is read beside.
    const ORPHANED: [&str; 2] = [
        "sweep: --min-agreement needs --transfer",
        "query: --db needs --offline",
    ];

    /// The words of a shell command up to its first operator,
    /// redirection or comment; a `<name>` placeholder is one word.
    fn shell_words(line: &str) -> Vec<String> {
        let (mut words, mut word, mut quote) = (Vec::new(), None::<String>, None);
        let mut chars = line.chars();
        while let Some(c) = chars.next() {
            match (quote, c) {
                (Some(q), c) if c == q => quote = None,
                (Some(_), c) => word.get_or_insert_with(String::new).push(c),
                (None, '"' | '\'') => {
                    quote = Some(c);
                    word.get_or_insert_with(String::new);
                }
                (None, '<') if word.is_none() => {
                    let rest: String = chars.by_ref().take_while(|&c| c != '>').collect();
                    word = Some(format!("<{rest}>"));
                }
                (None, c) if c.is_whitespace() => words.extend(word.take()),
                (None, '#') if word.is_none() => break,
                (None, '>') => {
                    // `2>`: the digits name a file descriptor.
                    if word
                        .as_deref()
                        .is_some_and(|w| w.bytes().all(|b| b.is_ascii_digit()))
                    {
                        word = None;
                    }
                    break;
                }
                (None, '|' | ';' | '&' | ')') => break,
                (None, c) => word.get_or_insert_with(String::new).push(c),
            }
        }
        words.extend(word);
        words
    }

    /// perfbench's stage command lines (its `CI_COMMANDS`, with `*JOBS`
    /// expanded and the `--db` it appends) and its other `loupe` argv
    /// lists.
    fn perfbench_lines(run_py: &str) -> Vec<Vec<String>> {
        let items = |list: &str, jobs: &[String]| -> Vec<String> {
            let mut words = Vec::new();
            for item in list.split(',').map(str::trim).filter(|i| !i.is_empty()) {
                match item {
                    "*JOBS" => words.extend_from_slice(jobs),
                    _ if item.starts_with("str(") => words.push("PATH".to_owned()),
                    _ => words.push(item.trim_matches('"').to_owned()),
                }
            }
            words
        };
        let inner =
            |line: &str| line[line.find('[').unwrap() + 1..line.rfind(']').unwrap()].to_owned();
        let jobs_line = run_py.lines().find(|l| l.starts_with("JOBS = [")).unwrap();
        let jobs = items(&inner(jobs_line), &[]);
        let stages = run_py
            .lines()
            .skip_while(|l| !l.starts_with("CI_COMMANDS = ["))
            .skip(1)
            .take_while(|l| *l != "]")
            .map(|l| [items(&inner(l), &jobs), vec!["--db".into(), "PATH".into()]].concat());
        let others = run_py
            .split("[str(loupe), ")
            .skip(1)
            .map(|rest| &rest[..rest.find(']').unwrap()])
            .filter(|list| !list.contains("*argv"))
            .map(|list| items(list, &jobs));
        stages.chain(others).collect()
    }

    /// Every `loupe` command line that CI, the docs, the verify notes
    /// and perfbench run, each with where it was found.
    fn command_lines() -> Vec<(String, Vec<String>)> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |path: &str| std::fs::read_to_string(root.join(path)).expect(path);
        let mut sources = vec![
            ".github/workflows/ci.yml".to_owned(),
            "README.md".to_owned(),
            ".claude/skills/verify/SKILL.md".to_owned(),
        ];
        for entry in std::fs::read_dir(root.join("docs")).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if name.ends_with(".md") {
                sources.push(format!("docs/{name}"));
            }
        }
        let mut lines = Vec::new();
        for path in sources {
            let text = read(&path);
            let found = lines.len();
            for line in text.lines() {
                for marker in ["loupe-cli -- ", "release/loupe "] {
                    if let Some((_, command)) = line.split_once(marker) {
                        lines.push((format!("{path}: {line}"), shell_words(command)));
                    }
                }
            }
            // Inline spans of the prose: `loupe sweep --static`.
            if !path.starts_with("docs/") {
                for span in text.split('`').skip(1).step_by(2) {
                    if let Some(command) = span.strip_prefix("loupe ") {
                        lines.push((format!("{path}: `{span}`"), shell_words(command)));
                    }
                }
                assert!(lines.len() > found, "no loupe command line in {path}");
            }
        }
        let perfbench = perfbench_lines(&read("perfbench/run.py"));
        assert!(perfbench.len() >= 8, "perfbench: {perfbench:?}");
        lines.extend(
            perfbench
                .into_iter()
                .map(|l| ("perfbench/run.py".to_owned(), l)),
        );
        lines
    }

    #[test]
    fn required_flags_are_flags_of_their_command() {
        for command in crate::COMMANDS {
            for (flag, needs) in command.requires {
                for name in std::iter::once(flag).chain(needs.iter()) {
                    assert!(
                        command.flags.iter().any(|f| f.0 == *name),
                        "{}: {name} is not one of its flags",
                        command.name
                    );
                }
            }
        }
    }

    #[test]
    fn every_command_line_of_ci_docs_and_perfbench_parses() {
        for (source, words) in command_lines() {
            // Blank, or a placeholder for the subcommand: `loupe "$cmd"
            // --help` in CI's loop over them, `loupe <command> --help`.
            if words.first().is_none_or(|w| w.starts_with(['$', '<'])) {
                continue;
            }
            let misspelt = MISSPELT.iter().find(|m| words.iter().any(|w| w == *m));
            match (parse(crate::COMMANDS, &words), misspelt) {
                (Ok(_), None) => {}
                (Err(e), Some(m)) if e.contains(&format!("unknown flag `{m}`")) => {}
                (Err(e), None) if ORPHANED.contains(&e.as_str()) && source.contains(" if ") => {}
                (Ok(_), Some(m)) => panic!("{source}: accepted the misspelt {m}"),
                (Err(e), _) => panic!("{source}: {e}"),
            }
        }
    }
}
