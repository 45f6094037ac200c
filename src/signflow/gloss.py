"""Text-side translation: lexicon segmentation and word-order mapping.

A sentence is segmented by greedy longest match against a lexicon (unknown
characters become single-character fingerspell tokens tagged OOV), then a
rule list permutes the tokens from natural word order into statute sign
order. Rules apply once each in (priority, id) order and every application
is recorded in a trace, so ordering can be undone exactly.

Going back (sign order to natural text): with a trace, inversion replays
the recorded permutations backwards and is exact for any drop-free rule
set. Without a trace (e.g. glosses coming from a recognizer), the rules are
undone one by one: an index-matched rule replays its own permutation (it
depends only on the sequence length) and is undone exactly, the same way a
trace step is; tag-matched moves use first/last match heuristics.

The engine is deterministic by construction.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .dataset import json_int, json_str, read_json, read_text
from .errors import ConfigError, GlossLookupError, ParseError

TAG_OOV = "OOV"

ACTIONS = ("move-to-end", "move-to-front", "swap-adjacent", "drop")


@dataclass(frozen=True)
class LexEntry:
    word: str
    gloss_id: str
    clip_ref: str
    tags: tuple[str, ...] = ()


@dataclass
class Lexicon:
    entries: dict[str, LexEntry]
    max_word_len: int = field(init=False)

    def __post_init__(self):
        for word in self.entries:
            if not word:
                raise ConfigError("lexicon words must be non-empty")
        counts = Counter(e.gloss_id for e in self.entries.values())
        dupes = {g for g, count in counts.items() if count > 1}
        if dupes:
            raise ConfigError(f"duplicate gloss ids in lexicon: {sorted(dupes)}")
        self.max_word_len = max((len(w) for w in self.entries), default=1)
        self._by_gloss = {e.gloss_id: e for e in self.entries.values()}

    def lookup_gloss(self, gloss_id: str) -> LexEntry | None:
        return self._by_gloss.get(gloss_id)

    @property
    def known_tags(self) -> set[str]:
        tags = {TAG_OOV}
        for e in self.entries.values():
            tags.update(e.tags)
        return tags


def load_lexicon(path: Path | str) -> Lexicon:
    """TSV: word <tab> gloss_id <tab> clip_ref <tab> comma-separated tags.

    A short line, an empty word, or a word or gloss id seen before is a
    ParseError that names the file and the line.
    """
    entries: dict[str, LexEntry] = {}
    gloss_lines: dict[str, int] = {}  # gloss id -> the line that defines it
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise ParseError(f"{path}:{lineno}: expected word\\tgloss_id\\tclip_ref[\\ttags]")
        word, gloss_id, clip_ref = parts[0], parts[1], parts[2]
        tags = tuple(t for t in parts[3].split(",") if t) if len(parts) > 3 else ()
        if not word:
            raise ParseError(f"{path}:{lineno}: empty word")
        if word in entries:
            raise ParseError(f"{path}:{lineno}: duplicate word {word!r}")
        if gloss_id in gloss_lines:
            raise ParseError(f"{path}:{lineno}: duplicate gloss id {gloss_id!r} "
                             f"(first on line {gloss_lines[gloss_id]})")
        gloss_lines[gloss_id] = lineno
        entries[word] = LexEntry(word, gloss_id, clip_ref, tags)
    return Lexicon(entries)


@dataclass(frozen=True)
class Token:
    surface: str
    gloss_id: str | None
    tags: tuple[str, ...] = ()

    @property
    def oov(self) -> bool:
        return TAG_OOV in self.tags

    def to_dict(self) -> dict:
        return {"surface": self.surface, "gloss_id": self.gloss_id, "tags": list(self.tags)}


def segment(text: str, lex: Lexicon) -> list[Token]:
    """Greedy longest-match segmentation; unmatched chars become OOV tokens.

    Concatenating the surfaces of the result reproduces the input exactly.
    """
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        match = None
        for length in range(min(lex.max_word_len, n - i), 0, -1):
            cand = text[i:i + length]
            if cand in lex.entries:
                match = lex.entries[cand]
                break
        if match is not None:
            tokens.append(Token(match.word, match.gloss_id, match.tags))
            i += len(match.word)
        else:
            tokens.append(Token(text[i], None, (TAG_OOV,)))
            i += 1
    return tokens


# -- reorder rules ---------------------------------------------------------------------


@dataclass(frozen=True)
class ReorderRule:
    """One permutation/deletion step keyed by tag or position."""

    rule_id: str
    priority: int
    action: str
    tag: str | None = None
    index: int | None = None

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ConfigError(f"rule {self.rule_id!r}: unknown action {self.action!r}")
        if (self.tag is None) == (self.index is None):
            raise ConfigError(f"rule {self.rule_id!r}: match must set exactly one of tag|index")
        if self.index is not None and self.index < 0:
            raise ConfigError(f"rule {self.rule_id!r}: index must be >= 0")

    def matches(self, token: Token, position: int) -> bool:
        if self.tag is not None:
            return self.tag in token.tags
        return position == self.index


def load_rules(path: Path | str, known_tags: set[str]) -> list[ReorderRule]:
    """JSON list of {id, priority, match: {tag|index}, action}.

    Tag names are validated against known_tags at load time. A field of the
    wrong JSON type, or a rule ReorderRule rejects, is a ParseError that
    names the file and the rule's number.
    """
    raw = read_json(path)
    if not isinstance(raw, list):
        raise ParseError(f"{path}: rules file must be a JSON list")
    rules = []
    for i, obj in enumerate(raw):
        match = obj.get("match", {}) if isinstance(obj, dict) else None
        if not isinstance(match, dict):
            raise ParseError(f"{path}: rule #{i}: a rule and its match must be JSON objects")
        try:
            tag, index = match.get("tag"), match.get("index")
            rule = ReorderRule(rule_id=json_str(obj["id"], "id"),
                               priority=json_int(obj["priority"], "priority"),
                               action=json_str(obj["action"], "action"),
                               tag=None if tag is None else json_str(tag, "tag"),
                               index=None if index is None else json_int(index, "index"))
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise ParseError(f"{path}: rule #{i}: {exc}") from exc
        if rule.tag is not None and rule.tag not in known_tags:
            raise ConfigError(f"{path}: rule {rule.rule_id!r} references unknown tag {rule.tag!r}")
        rules.append(rule)
    ids = [r.rule_id for r in rules]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{path}: duplicate rule ids")
    return rules


def _sorted_rules(rules: list[ReorderRule]) -> list[ReorderRule]:
    return sorted(rules, key=lambda r: (r.priority, r.rule_id))


@dataclass(frozen=True)
class TraceStep:
    """One applied rule: the permutation and the dropped positions."""

    rule_id: str
    before: tuple[str, ...]            # token surfaces before the rule
    after: tuple[str, ...]             # token surfaces after the rule
    source: tuple[int, ...]            # after[j] was at before[source[j]]
    dropped: tuple[int, ...] = ()      # positions (in before) deleted by a drop rule

    def to_dict(self) -> dict:
        return {"rule": self.rule_id, "before": list(self.before), "after": list(self.after)}


@dataclass
class GlossSequence:
    tokens: list[Token]
    trace: list[TraceStep] = field(default_factory=list)

    @property
    def gloss_ids(self) -> list[str]:
        return [t.gloss_id if t.gloss_id is not None else f"#{t.surface}" for t in self.tokens]

    def to_dict(self) -> dict:
        return {"glosses": self.gloss_ids,
                "tokens": [t.to_dict() for t in self.tokens],
                "trace": [s.to_dict() for s in self.trace]}


def _apply_rule(tokens: list[Token], rule: ReorderRule
                ) -> tuple[list[Token], tuple[int, ...], tuple[int, ...]]:
    """Returns (new tokens, source permutation, dropped positions)."""
    n = len(tokens)
    matched = [i for i, tok in enumerate(tokens) if rule.matches(tok, i)]
    if not matched:
        return tokens, tuple(range(n)), ()
    hit = set(matched)
    keep = [i for i in range(n) if i not in hit]

    if rule.action == "drop":
        return [tokens[i] for i in keep], tuple(keep), tuple(matched)

    if rule.action == "move-to-end":
        order = keep + matched
    elif rule.action == "move-to-front":
        order = matched + keep
    else:  # swap-adjacent: left-to-right single pass, no double-swapping
        order = list(range(n))
        i = 0
        while i < n - 1:
            if order[i] in hit:
                order[i], order[i + 1] = order[i + 1], order[i]
                i += 2
            else:
                i += 1
    return [tokens[i] for i in order], tuple(order), ()


def reorder(tokens: list[Token], rules: list[ReorderRule]) -> GlossSequence:
    """Apply each rule once in (priority, id) order, recording a trace.

    The output token multiset is a subset of the input's; equal when no
    drop rules fire.
    """
    current = list(tokens)
    trace: list[TraceStep] = []
    for rule in _sorted_rules(rules):
        before = tuple(t.surface for t in current)
        new, source, dropped = _apply_rule(current, rule)
        # every application is recorded, no-ops included: an empty trace then
        # reliably means "no provenance" and inversion can pick its path
        trace.append(TraceStep(rule.rule_id, before, tuple(t.surface for t in new),
                               source, dropped))
        current = new
    return GlossSequence(current, trace)


def _invert_step(tokens: list[Token | None], source: tuple[int, ...], n: int
                 ) -> list[Token | None]:
    """Undo one rule's permutation: ``source`` maps each output position to
    its position among the ``n`` tokens before the rule. Dropped positions
    come back as None placeholders so earlier steps keep their index space;
    placeholders are stripped once the whole trace is unwound."""
    restored: list[Token | None] = [None] * n
    for j, src in enumerate(source):
        restored[src] = tokens[j]
    return restored


def _structural_inverse(tokens: list[Token], rule: ReorderRule) -> list[Token]:
    """Trace-free inverse of a tag-matched move: first/last-match heuristics.

    A swap's output is a run of units: a token the rule left alone (one that
    does not match, or a matching last token) or a swapped pair whose second
    token matches. ``parses[p]`` says whether tokens[p:] splits into such
    units; pairs are taken left to right, but only where the rest still parses.
    """
    out = list(tokens)
    if rule.action == "swap-adjacent":
        n = len(out)
        hit = [rule.matches(tok, i) for i, tok in enumerate(out)]
        parses = [True] * (n + 1)
        for p in range(n - 1, -1, -1):
            parses[p] = ((not hit[p] or p == n - 1) and parses[p + 1]) or \
                (p + 1 < n and hit[p + 1] and parses[p + 2])
        p = 0
        while p < n - 1:
            if hit[p + 1] and parses[p + 2]:
                out[p], out[p + 1] = out[p + 1], out[p]
                p += 2
            else:
                p += 1
        return out
    if rule.action == "move-to-end":
        tail = []
        while out and rule.matches(out[-1], len(out) - 1):
            tail.append(out.pop())
        return list(reversed(tail)) + out
    head = []
    while out and rule.matches(out[0], 0):
        head.append(out.pop(0))
    return out + head


def inverse_reorder(glosses: GlossSequence, rules: list[ReorderRule]) -> list[Token]:
    """Undo reorder: exact trace replay when a trace is present, otherwise
    the rules in reverse priority order. Without a trace, an index-matched
    rule is undone exactly, by replaying its own permutation (which depends
    only on the sequence length); a tag-matched move by _structural_inverse.

    Drop rules are excluded from the invertible subset: a drop triggers a
    partial-invertibility warning and its tokens are not resurrected, while
    the surviving tokens still return to their original relative order.
    """
    if (any(step.dropped for step in glosses.trace) if glosses.trace
            else any(r.action == "drop" for r in rules)):
        warnings.warn("rule set contains drop actions; inversion is partial "
                      "(dropped tokens are not resurrected)", stacklevel=2)
    current: list[Token | None] = list(glosses.tokens)
    if glosses.trace:
        for step in reversed(glosses.trace):
            current = _invert_step(current, step.source, len(step.before))
        return [t for t in current if t is not None]
    for rule in reversed(_sorted_rules(rules)):
        if rule.action == "drop":
            continue  # nothing to restore
        if rule.index is not None:
            current = _invert_step(current, _apply_rule(current, rule)[1], len(current))
        else:
            current = _structural_inverse(current, rule)
    return current


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return (0x3400 <= cp <= 0x9FFF or 0xF900 <= cp <= 0xFAFF or 0x3000 <= cp <= 0x303F
            or 0xFF00 <= cp <= 0xFFEF)


def join_surfaces(tokens: list[Token]) -> str:
    """Concatenate surfaces: no space between CJK neighbors, else one space."""
    out: list[str] = []
    for i, tok in enumerate(tokens):
        if i > 0:
            prev = out[-1][-1] if out[-1] else ""
            nxt = tok.surface[0] if tok.surface else ""
            if not (prev and nxt and (_is_cjk(prev) or _is_cjk(nxt))):
                out.append(" ")
        out.append(tok.surface)
    return "".join(out)


def glosses_to_text(glosses: GlossSequence, lex: Lexicon, rules: list[ReorderRule]) -> str:
    """Sign-order glosses -> natural-order text.

    Every non-fingerspell gloss id must resolve in the lexicon.
    """
    _check_known([t.gloss_id for t in glosses.tokens if t.gloss_id is not None], lex)
    return join_surfaces(inverse_reorder(glosses, rules))


def tokens_from_gloss_ids(gloss_ids: list[str], lex: Lexicon) -> GlossSequence:
    """Build a trace-free GlossSequence from recognizer output ids.

    Ids prefixed '#' are fingerspell characters; others must resolve.
    """
    _check_known([gid for gid in gloss_ids if not gid.startswith("#")], lex)
    tokens = []
    for gid in gloss_ids:
        entry = None if gid.startswith("#") else lex.lookup_gloss(gid)
        tokens.append(Token(gid[1:], None, (TAG_OOV,)) if entry is None
                      else Token(entry.word, entry.gloss_id, entry.tags))
    return GlossSequence(tokens)


def _check_known(gloss_ids: list[str], lex: Lexicon) -> None:
    """Every id must resolve in the lexicon; the ones that do not are named,
    sorted, in one GlossLookupError."""
    missing = {gid for gid in gloss_ids if lex.lookup_gloss(gid) is None}
    if missing:
        raise GlossLookupError(f"gloss ids not in lexicon: {sorted(missing)}")
