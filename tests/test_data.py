import re
import sys

import pytest

from graphtext import data as D
from oracles import per_string_vocabulary, scan_tokenize


# -- tokenizer: one quote substitution, one split ------------------------------

def reference_tokenize(text):
    """Regex re-statement of the tokenizer rules, kept independent of the
    package's tokenizer and of the character-scan oracle."""
    out = []
    for w in text.replace("_", " ").split():
        while len(w) >= 2 and re.fullmatch(r'"[^"]*"', w):
            w = w[1:-1]
        out.extend(re.findall(r'[^.,;:!?()\[\]"\']+|[.,;:!?()\[\]"\']', w))
    return out


ADVERSARIAL = [
    "Frederick County, Maryland",
    '"1907-07-11"',
    "",
    "   ",
    "don't stop",
    'say "hello world" loudly',
    '""',
    '"a"b"',
    '""nested""',
    "semi;colon:and!marks?",
    "(parens) [brackets]",
    "well-known co-author",
    "A_B_C under_scores",
    'quote " alone',
    "trailing.",
    '"unclosed',
    'closed"',
    "a,b,,c",
    "' '",
    "_",
]


def test_tokenize_fixed_cases():
    assert D.tokenize("Frederick County, Maryland") == [
        "Frederick", "County", ",", "Maryland"]
    assert D.tokenize("") == []
    assert D.tokenize('"1907-07-11"') == ["1907-07-11"]
    assert D.tokenize("don't") == ["don", "'", "t"]
    assert D.tokenize("A_B") == ["A", "B"]


def test_tokenize_matches_reference_and_is_idempotent():
    import random
    rng = random.Random(99)
    # every punctuation mark, tabs and a non-ASCII letter
    alphabet = 'ab"c.-_\' ,():x;!?[]\té'
    fuzz = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 25)))
            for _ in range(1000)]
    # the split regex must end a run at underscores and Unicode whitespace
    # as str.split ends a word, in quote-free texts and in quoted ones
    plain = (alphabet.replace('"', "")
             + "__\u00a0\u2003\u3000\x1c\x1d\x1e\x1f\x85")
    fuzz += ["".join(rng.choice(plain) for _ in range(rng.randrange(1, 25)))
             for _ in range(1000)]
    quoted = plain + '""'
    fuzz += ["".join(rng.choice(quoted) for _ in range(rng.randrange(1, 25)))
             for _ in range(1000)]
    # the quote strip must find a word's edges where str.split does: put
    # each code point that re's \s or str.isspace (str.split's test) takes
    # for whitespace beside a quoted word
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = set(re.findall(r"\s", every)) | set(filter(str.isspace, every))
    for c in sorted(spaces):
        fuzz += [c + '"a"', '"a"' + c, c + '"a"' + c, '"' + c + '"',
                 f'x{c}"a.b"{c}"_"{c}y', f'"a{c}b"', f'"a"{c}"b"']
    for s in ADVERSARIAL + fuzz:
        got = D.tokenize(s)
        assert got == scan_tokenize(s) == reference_tokenize(s), repr(s)
        rejoined = " ".join(got)
        assert D.tokenize(rejoined) == got, repr(s)


def test_normalize_entity():
    assert D.normalize_entity("New_York_City") == "New York City"
    assert D.normalize_entity("  a   b ") == "a b"
    assert D.normalize_entity("Keep-Hyphen") == "Keep-Hyphen"


# -- dataset parsing -----------------------------------------------------------

def write_lines(tmp_path, lines):
    p = tmp_path / "data.jsonl"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(p)


def test_parse_dataset_basic(tmp_path):
    path = write_lines(tmp_path, [
        '{"triples":[["Iraq","language","Arabic"]],"text":"Iraq language is Arabic."}',
        '{"triples":[["A","b","C"]]}',
        "",
    ])
    exs = D.parse_dataset(path)
    assert len(exs) == 2
    assert exs[0].triples == [D.Triple("Iraq", "language", "Arabic")]
    assert exs[0].target_text == "Iraq language is Arabic."
    assert exs[1].target_text == ""


@pytest.mark.parametrize("line,needle", [
    ('{"triples":[]}', "empty triple list at line 1"),
    ('{"triples":[["a","b"]]}', "3 strings"),
    ('{"triples":[["a","","c"]]}', "relation"),
    ('{"triples":[["","b","c"]]}', "head"),
    ('{"triples":[["a","b",""]]}', "tail"),
    ('{"nope":1}', "triples"),
    ('not json', "line 1"),
    ('{"triples":[["a","b","c"]],"text":5}', "string"),
])
def test_parse_dataset_errors(tmp_path, line, needle):
    path = write_lines(tmp_path, [line])
    with pytest.raises(D.DataError) as err:
        D.parse_dataset(path)
    assert needle in str(err.value)


def test_parse_dataset_error_carries_later_line_number(tmp_path):
    path = write_lines(tmp_path, [
        '{"triples":[["a","b","c"]]}',
        '{"triples":[]}',
    ])
    with pytest.raises(D.DataError, match="line 2"):
        D.parse_dataset(path)


# -- vocabulary ----------------------------------------------------------------

def corpus_one():
    return [D.Example([D.Triple("Iraq", "language", "Arabic")],
                      "Iraq language is Arabic.")]


def test_reserved_ids_are_pinned():
    vocab = D.build_vocabulary(corpus_one())
    assert vocab.encode(["<pad>"])[0] == D.PAD_ID
    assert vocab.encode(["<unk>"])[0] == D.UNK_ID
    assert vocab.encode(["<bos>"])[0] == D.BOS_ID
    assert vocab.encode(["<eos>"])[0] == D.EOS_ID
    assert vocab.encode(["<Graph>"])[0] == D.GRAPH_ID
    assert vocab.encode(["<H>"])[0] == D.H_ID
    assert vocab.encode(["<R>"])[0] == D.R_ID
    assert vocab.encode(["<T>"])[0] == D.T_ID
    assert all(tok in vocab for tok in D.RESERVED_TOKENS)
    assert [D.PAD_ID, D.UNK_ID, D.BOS_ID, D.EOS_ID,
            D.GRAPH_ID, D.H_ID, D.R_ID, D.T_ID] == list(range(8))


def test_vocabulary_contents_and_unk():
    vocab = D.build_vocabulary(corpus_one())
    for tok in ["translate", "graph", "to", "English", ":",
                "Iraq", "language", "Arabic", "is", "."]:
        assert tok in vocab
    assert vocab.encode(["zebra"])[0] == D.UNK_ID
    assert vocab.encode(["Iraq"])[0] == vocab._token_to_id["Iraq"]


def test_vocabulary_min_count():
    """Reserved tokens, then the prompt's tokens however rare, then the
    corpus tokens seen at least ``min_count`` times, in first-appearance
    order; a dropped singleton reads as <unk> in inputs and targets."""
    corpus = [D.Example([D.Triple("a a b", "r", "c")], "a common words")]
    vocab = D.build_vocabulary(corpus, min_count=2)
    assert "a" in vocab  # appears 3 times
    assert "b" not in vocab
    assert vocab.encode(["b"])[0] == D.UNK_ID

    corpus = [
        D.Example([D.Triple("Rome", "capital", "Italy")],
                  "Rome is the old capital of Italy ."),
        D.Example([D.Triple("Lima", "capital", "Peru"),
                   D.Triple("Lima", "population", "9751000")],
                  "Lima is the capital of Peru today ."),
    ]
    prompt = "verbalize the graph :"
    vocab = D.build_vocabulary(corpus, min_count=2, prompt=prompt)
    assert vocab._id_to_token == D.RESERVED_TOKENS + [
        "verbalize", "the", "graph", ":",
        "Rome", "capital", "Italy", "is", "of", ".", "Lima", "Peru"]
    singletons = ["old", "population", "9751000", "today"]
    assert all(tok in D.build_vocabulary(corpus, prompt=prompt)
               for tok in singletons)
    inp = D.linearize(corpus[1], prompt, vocab)
    for tok, tid in zip(inp.surface, inp.token_ids):
        assert (tid == D.UNK_ID) == (tok in singletons), tok
    target = D.encode_target(D.tokenize(corpus[0].target_text), vocab)
    assert target[1:-1] == vocab.encode(
        ["Rome", "is", "the", "<unk>", "capital", "of", "Italy", "."])


def test_vocabulary_matches_per_string_counting():
    """Counting words a block of examples at a time, then tokenizing each
    distinct word once, gives the tokens, counts and order of tokenizing
    every string: over corpora longer than one block, with quote-wrapped
    and punctuation-attached words, at min_count 1 and 2, with the
    default and a custom prompt."""
    import random
    rng = random.Random(7)
    words = ["Rome", "Rome,", '"Rome"', "(Rome)", "capital", "capital.",
             "don't", '"1907-07-11"', 'say"', "A_B", "_x_", "New_York",
             "Lima;", "e.g.", "well-known", "B", "b", "'", "?!"]
    words += [f"w{i}" for i in range(60)]

    def phrase():
        return " ".join(rng.choices(words, k=rng.randint(1, 4)))

    # "Lima" reaches min_count 2 only by adding the plain word's count to
    # the one its token took from "Lima," before it
    corpora = [[D.Example([D.Triple("Lima,", "r", "t")], "Lima ?")]]
    for count in (1, 63, 64, 65, 200):
        corpora.append([D.Example([D.Triple(phrase(), phrase(), phrase())
                                   for _ in range(rng.randint(1, 3))],
                                  phrase() + " " + phrase())
                        for _ in range(count)])
    for corpus in corpora:
        for min_count in (1, 2):
            for prompt in (D.DEFAULT_PROMPT, 'say "w3" (x):'):
                got = D.build_vocabulary(corpus, min_count, prompt)
                want = per_string_vocabulary(corpus, min_count, prompt)
                assert got._id_to_token == want._id_to_token, (
                    len(corpus), min_count)


def test_vocabulary_roundtrip(tmp_path):
    vocab = D.build_vocabulary(corpus_one())
    path = str(tmp_path / "vocab.txt")
    vocab.save(path)
    again = D.Vocabulary.load(path)
    assert len(again) == len(vocab)
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().splitlines()
    assert len(tokens) == len(vocab)
    for i, tok in enumerate(tokens):
        assert again.encode([tok])[0] == vocab.encode([tok])[0] == i


def test_vocabulary_rejects_duplicates_and_bad_prefix():
    with pytest.raises(D.DataError):
        D.Vocabulary(D.RESERVED_TOKENS + ["x", "x"])
    with pytest.raises(D.DataError):
        D.Vocabulary(["<unk>", "<pad>"])
    with pytest.raises(D.DataError):
        D.build_vocabulary([])


# -- linearization ---------------------------------------------------------------

def test_linearize_iraq_surface():
    vocab = D.build_vocabulary(corpus_one())
    out = D.linearize(corpus_one()[0], D.DEFAULT_PROMPT, vocab)
    assert out.surface == ["translate", "graph", "to", "English", ":",
                           "<Graph>", "<H>", "Iraq", "<R>", "language",
                           "<T>", "Arabic"]
    assert out.span_keys == ["Iraq", "language", "Arabic"]
    assert out.token_ids == vocab.encode(out.surface)


def test_linearize_counting_without_prompt():
    ex = D.Example([D.Triple("a", "b", "c")])
    vocab = D.build_vocabulary([ex])
    out = D.linearize(ex, "", vocab)
    assert len(out) == 7  # global + 3 markers + 3 single-token spans


def test_linearize_shared_entities_share_keys():
    ex = D.Example([D.Triple("X_Y", "r1", "B"), D.Triple("X Y", "r2", "C")])
    vocab = D.build_vocabulary([ex])
    out = D.linearize(ex, "", vocab)
    # one key per span occurrence; the two heads normalize alike
    assert out.span_keys == ["X Y", "r1", "B", "X Y", "r2", "C"]


def test_linearize_rejects_overflow_and_empty_span():
    ex = D.Example([D.Triple("a b c d", "r", "t")])
    vocab = D.build_vocabulary([ex])
    with pytest.raises(D.DataError, match="exceeds"):
        D.linearize(ex, "", vocab, max_sequence_length=5)
    bad = D.Example([D.Triple('""', "r", "t")])
    with pytest.raises(D.DataError, match="tokenizes to nothing"):
        D.linearize(bad, "", vocab)


def test_encode_target_frames_and_limits():
    vocab = D.build_vocabulary(corpus_one())
    ids = D.encode_target(D.tokenize("Iraq language is Arabic."), vocab)
    assert ids[0] == D.BOS_ID and ids[-1] == D.EOS_ID
    assert vocab.decode(ids) == "Iraq language is Arabic ."
    with pytest.raises(D.DataError):
        D.encode_target(D.tokenize("a b c d e"), vocab,
                        max_target_length=4)


def test_reserved_token_strings_are_data_errors():
    """A reserved token string in the data would take that token's id:
    ``<eos>`` mid-target, ``<pad>`` a counted target, ``<H>`` a head
    marker on an entity token. Each is refused, naming where it was."""
    vocab = D.build_vocabulary(corpus_one())
    with pytest.raises(D.DataError,
                       match="the text holds the reserved token '<eos>'"):
        D.encode_target(D.tokenize("Iraq <eos> speaks <pad> Arabic ."),
                        vocab)
    for tok in D.RESERVED_TOKENS:
        with pytest.raises(D.DataError, match=tok):
            D.encode_target(D.tokenize(f"a {tok} b"), vocab)
    ok = D.Triple("Iraq", "language", "Arabic")
    for bad in (D.Triple("<H>", "r", "t"), D.Triple("h", "is <pad>", "t"),
                D.Triple("h", "r", "x <T>")):
        with pytest.raises(D.DataError, match="triple 1 holds the reserved"):
            D.linearize(D.Example([ok, bad]), D.DEFAULT_PROMPT, vocab)
    with pytest.raises(D.DataError,
                       match="the prompt holds the reserved token '<Graph>'"):
        D.linearize(D.Example([ok]), "describe <Graph> :", vocab)
    # look-alikes are ordinary (unknown) words
    assert D.encode_target(D.tokenize("a <EOS> <pad b"),
                           vocab)[2:4] == [D.UNK_ID] * 2
    assert D.linearize(D.Example([D.Triple("<h>", "r", "t")]), "",
                       vocab).surface[1:3] == ["<H>", "<h>"]


def reparse_structure(surface):
    """Rebuild (prompt, [(head_toks, rel_toks, tail_toks), ...]) from a
    linearized surface stream; used for the round-trip property."""
    g = surface.index("<Graph>")
    prompt, rest = surface[:g], surface[g + 1:]
    triples, cur, bucket = [], None, None
    for tok in rest:
        if tok == "<H>":
            if cur:
                triples.append(cur)
            cur = ([], [], [])
            bucket = 0
        elif tok == "<R>":
            bucket = 1
        elif tok == "<T>":
            bucket = 2
        else:
            cur[bucket].append(tok)
    if cur:
        triples.append(cur)
    return prompt, triples


def test_linearize_roundtrip_structure():
    ex = D.Example([D.Triple("New_York City", "located in", "USA"),
                    D.Triple("USA", "has-capital", "Washington , D.C.")])
    vocab = D.build_vocabulary([ex])
    out = D.linearize(ex, D.DEFAULT_PROMPT, vocab)
    prompt, triples = reparse_structure(out.surface)
    assert prompt == D.tokenize(D.DEFAULT_PROMPT)
    assert triples == [
        (D.tokenize(t.head), D.tokenize(t.relation), D.tokenize(t.tail))
        for t in ex.triples]
