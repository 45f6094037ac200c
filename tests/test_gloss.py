import itertools
import json
import random

import pytest

from signflow.errors import ConfigError, GlossLookupError, ParseError
from signflow.gloss import (GlossSequence, LexEntry, Lexicon, ReorderRule, Token,
                            glosses_to_text, inverse_reorder, join_surfaces, load_lexicon,
                            load_rules, reorder, segment, tokens_from_gloss_ids)


def lex_of(*words):
    entries = {}
    for i, spec in enumerate(words):
        if isinstance(spec, tuple):
            word, tags = spec
        else:
            word, tags = spec, ()
        entries[word] = LexEntry(word, f"G{i}", f"clip{i}", tuple(tags))
    return Lexicon(entries)


class TestSegment:
    def test_longest_match_wins(self):
        lex = lex_of("AB", "A", "B", "C")
        assert [t.surface for t in segment("ABC", lex)] == ["AB", "C"]

    def test_empty_string(self):
        assert segment("", lex_of("A")) == []

    def test_oov_single_char_tokens(self):
        lex = lex_of("A", "B")
        tokens = segment("AXB", lex)
        assert [t.surface for t in tokens] == ["A", "X", "B"]
        assert tokens[1].oov and not tokens[0].oov

    def test_concatenation_invariant(self):
        lex = lex_of("我们", "我", "吃饭", "吃")
        for text in ("我们吃饭", "我吃?!饭", "", "xyz我", "  spaced  "):
            tokens = segment(text, lex)
            assert "".join(t.surface for t in tokens) == text

    def test_concatenation_invariant_fuzz_500(self):
        lex = lex_of("AB", "ABC", "BC", "A", "C", ("不", ("NEG",)), "吃", "苹果")
        alphabet = "ABC不吃苹果xy 。"
        rng = random.Random(13)
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
            tokens = segment(text, lex)
            assert "".join(t.surface for t in tokens) == text

    def test_greedy_not_optimal_documented(self):
        # greedy takes ABC even when AB+CD would cover more input
        lex = lex_of("ABC", "AB", "CD")
        tokens = segment("ABCD", lex)
        assert [t.surface for t in tokens] == ["ABC", "D"]
        assert tokens[1].oov


class TestLexiconIO:
    def test_load_tsv(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("# comment\n我\tG_WO\tclip_wo\tPRON\n不\tG_BU\tclip_bu\tNEG,ADV\n",
                     encoding="utf-8")
        lex = load_lexicon(p)
        assert lex.entries["不"].tags == ("NEG", "ADV")
        assert lex.lookup_gloss("G_WO").word == "我"
        assert lex.known_tags >= {"NEG", "ADV", "PRON", "OOV"}

    def test_short_line_rejected(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("我\tG_WO\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1:"):
            load_lexicon(p)

    def test_duplicate_word_rejected(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("我\tG1\tc1\n我\tG2\tc2\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2:"):
            load_lexicon(p)

    def test_duplicate_gloss_rejected(self):
        with pytest.raises(ConfigError, match="duplicate gloss"):
            Lexicon({"a": LexEntry("a", "G", "c1"), "b": LexEntry("b", "G", "c2")})


class TestRules:
    def test_load_and_validate_tags(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text(json.dumps([
            {"id": "r1", "priority": 1, "match": {"tag": "NEG"}, "action": "move-to-end"},
        ]))
        rules = load_rules(p, known_tags={"NEG"})
        assert rules[0].tag == "NEG"
        with pytest.raises(ConfigError, match="unknown tag"):
            load_rules(p, known_tags={"V"})

    def test_bad_action_rejected(self):
        with pytest.raises(ConfigError):
            ReorderRule("r", 0, "teleport", tag="X")

    def test_match_exactly_one_of_tag_index(self):
        with pytest.raises(ConfigError):
            ReorderRule("r", 0, "drop")
        with pytest.raises(ConfigError):
            ReorderRule("r", 0, "drop", tag="X", index=1)


def tok(surface, *tags):
    return Token(surface, f"G_{surface}", tuple(tags))


class TestReorder:
    def test_empty_rules_identity(self):
        tokens = [tok("a"), tok("b")]
        seq = reorder(tokens, [])
        assert seq.tokens == tokens and seq.trace == []

    def test_neg_moves_to_end(self):
        tokens = [tok("eat", "V"), tok("not", "NEG"), tok("apple", "N")]
        rule = ReorderRule("neg", 10, "move-to-end", tag="NEG")
        seq = reorder(tokens, [rule])
        assert [t.surface for t in seq.tokens] == ["eat", "apple", "not"]
        assert seq.trace[0].rule_id == "neg"
        assert seq.trace[0].before == ("eat", "not", "apple")
        assert seq.trace[0].after == ("eat", "apple", "not")

    def test_equal_priority_applies_in_id_order(self):
        tokens = [tok("a", "X"), tok("b"), tok("c", "Y")]
        r_end = ReorderRule("1end", 5, "move-to-end", tag="X")
        r_front = ReorderRule("2front", 5, "move-to-front", tag="Y")
        out_a = [t.surface for t in reorder(tokens, [r_end, r_front]).tokens]
        # swap the ids so the other rule runs first; output differs
        r_end2 = ReorderRule("2end", 5, "move-to-end", tag="X")
        r_front2 = ReorderRule("1front", 5, "move-to-front", tag="Y")
        out_b = [t.surface for t in reorder(tokens, [r_end2, r_front2]).tokens]
        assert out_a == ["c", "b", "a"]
        assert out_b == ["c", "b", "a"]  # same final set, same positions here
        # a crafted case where id order changes the outcome
        tokens2 = [tok("a", "X", "Y"), tok("b")]
        out_c = [t.surface for t in reorder(tokens2, [r_end, r_front]).tokens]
        out_d = [t.surface for t in reorder(tokens2, [r_end2, r_front2]).tokens]
        assert out_c != out_d

    def test_index_match(self):
        tokens = [tok("a"), tok("b"), tok("c")]
        rule = ReorderRule("swap0", 0, "swap-adjacent", index=0)
        out = reorder(tokens, [rule])
        assert [t.surface for t in out.tokens] == ["b", "a", "c"]

    def test_drop_removes_tokens(self):
        tokens = [tok("a"), tok("um", "FILLER"), tok("b")]
        rule = ReorderRule("dropf", 0, "drop", tag="FILLER")
        seq = reorder(tokens, [rule])
        assert [t.surface for t in seq.tokens] == ["a", "b"]
        assert seq.trace[0].dropped == (1,)

    def test_multiset_subset_invariant(self):
        tokens = [tok("a", "X"), tok("b"), tok("c", "X")]
        rules = [ReorderRule("r1", 0, "move-to-end", tag="X"),
                 ReorderRule("r2", 1, "drop", index=0)]
        seq = reorder(tokens, rules)
        out_surfaces = sorted(t.surface for t in seq.tokens)
        assert set(out_surfaces) <= {"a", "b", "c"}
        assert len(out_surfaces) == 2

    def test_deterministic(self):
        tokens = [tok("a", "X"), tok("b", "Y"), tok("c")]
        rules = [ReorderRule("r1", 0, "move-to-end", tag="X"),
                 ReorderRule("r2", 1, "swap-adjacent", tag="Y")]
        a = reorder(tokens, rules)
        b = reorder(tokens, rules)
        assert [t.surface for t in a.tokens] == [t.surface for t in b.tokens]
        assert a.trace == b.trace


class TestInverseReorder:
    def test_empty_rules_identity(self):
        seq = GlossSequence([tok("a"), tok("b")])
        assert inverse_reorder(seq, []) == seq.tokens

    def test_neg_roundtrip(self):
        tokens = [tok("eat", "V"), tok("not", "NEG"), tok("apple", "N")]
        rule = ReorderRule("neg", 10, "move-to-end", tag="NEG")
        seq = reorder(tokens, [rule])
        assert inverse_reorder(seq, [rule]) == tokens

    def test_drop_warns_and_stays_dropped(self):
        tokens = [tok("a", "X"), tok("b"), tok("c", "X"), tok("d")]
        rules = [ReorderRule("d", 0, "drop", tag="X"),
                 ReorderRule("m", 1, "move-to-front", index=1)]
        seq = reorder(tokens, rules)
        assert [t.surface for t in seq.tokens] == ["d", "b"]
        with pytest.warns(UserWarning, match="partial"):
            restored = inverse_reorder(seq, rules)
        # survivors return to original relative order; dropped stay dropped
        assert [t.surface for t in restored] == ["b", "d"]

    def test_traceless_index_rules_exact(self):
        tokens = [tok("a"), tok("b"), tok("c"), tok("d")]
        rules = [ReorderRule("r1", 0, "move-to-end", index=1),
                 ReorderRule("r2", 1, "swap-adjacent", index=0)]
        ordered = reorder(tokens, rules)
        bare = GlossSequence(list(ordered.tokens))  # trace stripped
        assert inverse_reorder(bare, rules) == tokens

    @pytest.mark.parametrize("action", ["move-to-end", "move-to-front", "swap-adjacent"])
    def test_traceless_tag_rule_reorders_back(self, action):
        # every tag pattern up to 7 tokens: without a trace the inverse may
        # differ from the input, but it must reorder to the same output (a
        # swap of [w0, w1, w2, w3], w1 and w2 tagged, gives [w0, w2, w1, w3],
        # and pairing w0 with w2 would leave the tagged w1 unpaired)
        rule = ReorderRule("r", 0, action, tag="X")
        for n in range(8):
            for hits in itertools.product((False, True), repeat=n):
                tokens = [tok(f"w{i}", "X" if hit else "Y") for i, hit in enumerate(hits)]
                y = reorder(tokens, [rule]).tokens
                back = inverse_reorder(GlossSequence(list(y)), [rule])
                assert reorder(back, [rule]).tokens == y, hits

    def test_random_drop_free_roundtrip_1000(self):
        rng = random.Random(99)
        tags = ["NEG", "WH", "TIME", "ADJ"]
        actions = ["move-to-end", "move-to-front", "swap-adjacent"]
        for trial in range(1000):
            n_tokens = rng.randrange(0, 9)
            tokens = []
            for i in range(n_tokens):
                n_tags = rng.randrange(0, 3)
                tokens.append(Token(f"w{i}", f"G_w{i}",
                                    tuple(rng.sample(tags, n_tags))))
            n_rules = rng.randrange(0, 5)
            rules = []
            for ri in range(n_rules):
                action = rng.choice(actions)
                if rng.random() < 0.5:
                    rules.append(ReorderRule(f"r{ri}", rng.randrange(0, 4), action,
                                             tag=rng.choice(tags)))
                else:
                    rules.append(ReorderRule(f"r{ri}", rng.randrange(0, 4), action,
                                             index=rng.randrange(0, 10)))
            seq = reorder(tokens, rules)
            restored = inverse_reorder(seq, rules)
            assert restored == tokens, f"trial {trial}"
            if all(rule.index is not None for rule in rules):
                # without a trace, index rules are undone exactly too
                bare = GlossSequence(list(seq.tokens))
                assert inverse_reorder(bare, rules) == tokens, f"trial {trial} (no trace)"


class TestGlossesToText:
    def test_single_gloss(self):
        lex = lex_of("苹果")
        seq = GlossSequence([Token("苹果", "G0")])
        assert glosses_to_text(seq, lex, []) == "苹果"

    def test_empty(self):
        assert glosses_to_text(GlossSequence([]), lex_of("a"), []) == ""

    def test_neg_example_roundtrips_to_text(self):
        lex = Lexicon({
            "吃": LexEntry("吃", "G_EAT", "c1", ("V",)),
            "不": LexEntry("不", "G_NOT", "c2", ("NEG",)),
            "苹果": LexEntry("苹果", "G_APPLE", "c3", ("N",)),
        })
        rule = ReorderRule("neg", 10, "move-to-end", tag="NEG")
        tokens = segment("吃不苹果", lex)
        seq = reorder(tokens, [rule])
        assert seq.gloss_ids == ["G_EAT", "G_APPLE", "G_NOT"]
        assert glosses_to_text(seq, lex, [rule]) == "吃不苹果"

    def test_unresolvable_gloss_listed(self):
        lex = lex_of("a")
        seq = GlossSequence([Token("b", "G_MISSING")])
        with pytest.raises(GlossLookupError, match="G_MISSING"):
            glosses_to_text(seq, lex, [])

    def test_join_spacing(self):
        cjk = [Token("我", "G1"), Token("吃", "G2")]
        ascii_toks = [Token("hello", "G3"), Token("world", "G4")]
        assert join_surfaces(cjk) == "我吃"
        assert join_surfaces(ascii_toks) == "hello world"

    def test_tokens_from_gloss_ids(self):
        lex = lex_of(("不", ("NEG",)))
        seq = tokens_from_gloss_ids(["G0", "#x"], lex)
        assert seq.tokens[0].surface == "不"
        assert seq.tokens[1].oov and seq.tokens[1].surface == "x"
        with pytest.raises(GlossLookupError):
            tokens_from_gloss_ids(["G_NOPE"], lex)


# safety checks of the lexicon: id -> (call, error type, what the message holds)
GLOSS_ERRORS = {
    "lexicon-empty-word": (lambda: Lexicon({"": LexEntry("", "G0", "G0")}), ConfigError,
                           "lexicon words must be non-empty"),
}


@pytest.mark.parametrize("row", list(GLOSS_ERRORS))
def test_typed_error(row):
    call, error, needle = GLOSS_ERRORS[row]
    with pytest.raises(error) as info:
        call()
    assert needle in str(info.value)
