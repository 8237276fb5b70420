"""Dataset parsing, tokenization, linearization, and the vocabulary.

A dataset is UTF-8 JSON lines, one object per line:

    {"triples": [["head", "relation", "tail"], ...], "text": "..."}

Triples are linearized into a single token sequence: the prompt, a global
graph marker, then per triple the three span markers each followed by the
tokens of its entity or relation string. The markers carry the whole
structure: the reserved tokens hold ids 0-7 and no prompt or triple token
may be one of them, so the token graph is read off the marker ids.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import re
from collections import Counter
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator

DEFAULT_PROMPT = "translate graph to English: "
MAX_SEQUENCE_LENGTH = 187
MAX_TARGET_LENGTH = 120

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
GRAPH_TOKEN = "<Graph>"
HEAD_TOKEN = "<H>"
REL_TOKEN = "<R>"
TAIL_TOKEN = "<T>"

RESERVED_TOKENS = [PAD_TOKEN, UNK_TOKEN, BOS_TOKEN, EOS_TOKEN,
                   GRAPH_TOKEN, HEAD_TOKEN, REL_TOKEN, TAIL_TOKEN]
PAD_ID, UNK_ID, BOS_ID, EOS_ID, GRAPH_ID, H_ID, R_ID, T_ID = range(8)
_RESERVED = frozenset(RESERVED_TOKENS)


class DataError(ValueError):
    """Malformed dataset content; message carries line numbers/field names."""


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[BinaryIO]:
    """Write ``path`` via a temporary file beside it, moved onto ``path`` when
    the block completes; a failure leaves the old file and no temporary."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@dataclass(frozen=True)
class Triple:
    head: str
    relation: str
    tail: str


@dataclass
class Example:
    triples: list[Triple]
    target_text: str = ""


@dataclass
class TokenizedGraphInput:
    """One linearized example: its token ids and strings, and one key per
    span.

    A span is a head, relation or tail marker and the tokens up to the
    next marker. ``span_keys[s]`` holds the normalized string of the
    ``s``-th span in sequence order; spans whose strings normalize
    identically carry equal keys, which is what the same-entity relation
    looks up.
    """
    token_ids: list[int]
    surface: list[str]
    span_keys: list[str]

    def __len__(self) -> int:
        return len(self.token_ids)


# ---------------------------------------------------------------------------
# tokenizer

_PUNCT = frozenset('.,;:!?()[]"\'')
_PUNCT_CLASS = re.escape("".join(sorted(_PUNCT)))
# maximal runs free of punctuation, whitespace and underscores, and single
# punctuation marks (re's \s is exactly what str.split splits on)
_split_text = re.compile(f"[^{_PUNCT_CLASS}\\s_]+|[{_PUNCT_CLASS}]").findall
# a whitespace-delimited word wrapped in double quotes with none inside; re
# finds a pattern that opens on the quote faster than one opening on (?<!\S)
_unquote = re.compile(r'"(?<!\S")([^"\s]*)"(?!\S)').sub


def tokenize(text: str) -> list[str]:
    """Deterministic surface tokenizer.

    Underscores become spaces, words split on whitespace, the listed
    punctuation marks detach as single-character tokens, intra-token
    hyphens survive, and double quotes wrapping a whole word with none
    inside are stripped, in one substitution over the text; one regex
    then splits the text whole. Joining the output with single spaces
    and re-tokenizing returns the same list.
    """
    if '"' in text:  # strip quoting like "1907-07-11"
        text = _unquote(r"\1", text.replace("_", " "))
    return _split_text(text)


def normalize_entity(s: str) -> str:
    """Underscores to spaces, whitespace collapsed; case preserved."""
    return " ".join(s.replace("_", " ").split())


# ---------------------------------------------------------------------------
# dataset parsing


def _text_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 text file; other bytes are a data error that
    names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None


def parse_dataset(path: str) -> list[Example]:
    """Read a JSON-lines dataset; every malformed line fails loudly."""
    examples: list[Example] = []
    for lineno, line in enumerate(_text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed record at line {lineno}: {exc.msg}") from None
        examples.append(_parse_record(record, lineno))
    return examples


def _parse_record(record, lineno: int) -> Example:
    if not isinstance(record, dict) or "triples" not in record:
        raise DataError(f"line {lineno}: expected an object with a 'triples' array")
    raw = record["triples"]
    if not isinstance(raw, list) or not raw:
        raise DataError(f"empty triple list at line {lineno}")
    triples = []
    for t in raw:
        if not (isinstance(t, list) and len(t) == 3
                and all(isinstance(x, str) for x in t)):
            raise DataError(f"line {lineno}: each triple must be 3 strings")
        for name, value in zip(("head", "relation", "tail"), t):
            if not normalize_entity(value):
                raise DataError(f"line {lineno}: empty {name} field")
        triples.append(Triple(*t))
    text = record.get("text", "")
    if not isinstance(text, str):
        raise DataError(f"line {lineno}: 'text' must be a string")
    return Example(triples=triples, target_text=text)


# ---------------------------------------------------------------------------
# vocabulary


class Vocabulary:
    """Bijective token/id maps with fixed reserved ids on the first rows.

    The file form is one token per line; the line number is the id.
    """

    def __init__(self, tokens: Iterable[str]):
        toks = list(tokens)
        if toks[:len(RESERVED_TOKENS)] != RESERVED_TOKENS:
            raise DataError("vocabulary must start with the reserved tokens")
        self._id_to_token = toks
        self._token_to_id = {t: i for i, t in enumerate(toks)}
        if len(self._token_to_id) != len(toks):
            dupes = [t for t, c in Counter(toks).items() if c > 1]
            raise DataError(f"duplicate vocabulary entries: {dupes[:5]}")

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def encode(self, tokens: Iterable[str]) -> list[int]:
        ids = self._token_to_id
        return [ids.get(t, UNK_ID) for t in tokens]

    def decode(self, ids: Iterable[int]) -> str:
        """Space-joined tokens, reserved tokens dropped."""
        toks = [self._id_to_token[i] for i in ids]
        return " ".join(t for t in toks if t not in _RESERVED)

    def save(self, path: str) -> None:
        with atomic_write(path) as fh:
            fh.write("".join(t + "\n" for t in self._id_to_token).encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        toks = [line.rstrip("\n") for line in _text_lines(path)]
        while toks and toks[-1] == "":
            toks.pop()
        return cls(toks)


# examples whose strings are joined and split as one text; a whole corpus
# joined at once would hold a second copy of it
_VOCAB_BLOCK = 64


def build_vocabulary(corpus: list[Example], min_count: int = 1,
                     prompt: str = DEFAULT_PROMPT) -> Vocabulary:
    """Reserved tokens, then prompt tokens, then corpus tokens with
    frequency >= min_count, in first-appearance order.

    A text's tokens are its words' tokens in order, so the corpus words
    are counted first, a block of examples per ``str.split``, and each
    distinct word is tokenized once, in first-appearance order, adding
    its count to each of its tokens. Tokens, counts and order are those
    of tokenizing every string.
    """
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    words: Counter[str] = Counter()  # keys in first-appearance order
    for start in range(0, len(corpus), _VOCAB_BLOCK):
        parts: list[str] = []
        for ex in corpus[start:start + _VOCAB_BLOCK]:
            for tr in ex.triples:
                parts += (tr.head, tr.relation, tr.tail)
            parts.append(ex.target_text)
        words.update(" ".join(parts).replace("_", " ").split())
    counts: dict[str, int] = {}  # keys in first-appearance order
    for word, n in words.items():
        if _PUNCT.isdisjoint(word):  # a plain word is its own token
            counts[word] = counts.get(word, 0) + n
        else:
            for t in tokenize(word):
                counts[t] = counts.get(t, 0) + n

    toks = list(RESERVED_TOKENS)
    for t in tokenize(prompt):
        if t not in toks:  # prompt tokens are always kept
            toks.append(t)
    taken = set(toks)
    toks += [t for t, n in counts.items() if n >= min_count and t not in taken]
    return Vocabulary(toks)


# ---------------------------------------------------------------------------
# linearization

# each span's marker, and its name in data errors
_SPAN_MARKERS = ((HEAD_TOKEN, "SPECIAL_H"), (REL_TOKEN, "SPECIAL_R"),
                 (TAIL_TOKEN, "SPECIAL_T"))


def _unreserved(tokens: list[str], where: str) -> list[str]:
    """``tokens`` as they are; a reserved token string among them would
    take that token's id (an end marker mid-target, say), so it is a data
    error that names ``where`` it came from."""
    if not _RESERVED.isdisjoint(tokens):
        tok = next(t for t in tokens if t in _RESERVED)
        raise DataError(f"{where} holds the reserved token {tok!r}")
    return tokens


@functools.lru_cache(maxsize=8)
def _prompt_tokens(prompt: str) -> tuple[str, ...]:
    """The prompt's checked tokens, tokenized once per distinct prompt
    rather than once per example."""
    return tuple(_unreserved(tokenize(prompt), "the prompt"))


def linearize(example: Example, prompt: str, vocab: Vocabulary,
              max_sequence_length: int = MAX_SEQUENCE_LENGTH) -> TokenizedGraphInput:
    """Flatten an example into the marked-up token sequence.

    Each triple string is tokenized once, and each span adds its marker
    and its tokens to the surface.

    Raises rather than truncating when the result would exceed
    ``max_sequence_length``, and on a reserved token string in the prompt
    or a triple.
    """
    if not example.triples:
        raise DataError("example has no triples")
    prompt_tokens = _prompt_tokens(prompt)
    surface = [*prompt_tokens, GRAPH_TOKEN]
    span_keys: list[str] = []

    for ti, triple in enumerate(example.triples):
        texts = (triple.head, triple.relation, triple.tail)
        for (marker, name), text in zip(_SPAN_MARKERS, texts):
            words = tokenize(text)
            if not words:
                raise DataError(
                    f"triple {ti}: {name} span tokenizes to nothing")
            _unreserved(words, f"triple {ti}")
            span_keys.append(normalize_entity(text))
            surface.append(marker)
            surface += words

    if len(surface) > max_sequence_length:
        raise DataError(
            f"linearized length {len(surface)} exceeds the"
            f" {max_sequence_length}-token limit")
    return TokenizedGraphInput(token_ids=vocab.encode(surface), surface=surface,
                               span_keys=span_keys)


def encode_target(tokens: list[str], vocab: Vocabulary,
                  max_target_length: int = MAX_TARGET_LENGTH) -> list[int]:
    """Target ids framed by the sequence markers: BOS, the ids of the
    target text's ``tokens`` (as :func:`tokenize` gives them), EOS. A
    reserved token string among them is a data error."""
    ids = [BOS_ID] + vocab.encode(_unreserved(tokens, "the text")) + [EOS_ID]
    if len(ids) > max_target_length:
        raise DataError(
            f"target length {len(ids)} exceeds the {max_target_length}-token limit")
    return ids
