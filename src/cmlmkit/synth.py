"""Synthetic multilingual corpora built from token-substitution ciphers.

Each "language" owns a disjoint list of pseudo-words; word i of language A
translates to word i of language B, so every cross-lingual task comes with
exact gold alignments. Documents are copy-task pairs: the second sentence
repeats the first, which makes the conditioning signal measurable (a
denoiser that cannot see the neighboring sentence is reduced to guessing).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

NLI_LABEL_NAMES = ("entailment", "contradiction", "neutral")

# distinct pseudo-words: two or three consonant-vowel syllables
_SYLLABLES = len(_CONSONANTS) * len(_VOWELS)
_DISTINCT_WORDS = _SYLLABLES ** 2 + _SYLLABLES ** 3


def _pseudo_word(rng: np.random.Generator) -> str:
    syllables = rng.integers(2, 4)
    return "".join(_CONSONANTS[rng.integers(len(_CONSONANTS))] +
                   _VOWELS[rng.integers(len(_VOWELS))]
                   for _ in range(syllables))


def make_languages(rng: np.random.Generator, n_languages: int,
                   words_per_language: int) -> dict[str, list[str]]:
    """Disjoint word lists; index i is the same concept in every language."""
    if n_languages < 1:
        raise ContractError("need at least one language")
    pool: list[str] = []
    seen: set[str] = set()
    while len(pool) < n_languages * words_per_language:
        w = _pseudo_word(rng)
        if w not in seen:
            seen.add(w)
            pool.append(w)
    return {f"l{k}": pool[k * words_per_language:(k + 1) * words_per_language]
            for k in range(n_languages)}


def translate(sentence: str, source_words: list[str],
              target_words: list[str]) -> str:
    index = {w: i for i, w in enumerate(source_words)}
    return " ".join(target_words[index[w]] for w in sentence.split())


def _sentence(rng: np.random.Generator, words: list[str], length: int) -> str:
    return " ".join(words[int(i)] for i in rng.integers(0, len(words), size=length))


@dataclass
class SynthSpec:
    """Knobs for the generated dataset."""

    n_languages: int = 2
    words_per_language: int = 24
    sentence_len: int = 5
    n_docs: int = 2000
    n_bitext: int = 2000
    n_heldout: int = 64
    n_nli: int = 900

    def __post_init__(self):
        """Refuse a spec the generator cannot satisfy, before any draw."""
        for name, floor in (("n_languages", 2), ("words_per_language", 1),
                            ("sentence_len", 1), ("n_docs", 0), ("n_bitext", 0),
                            ("n_heldout", 0), ("n_nli", 0)):
            if getattr(self, name) < floor:
                raise ContractError(
                    f"{name} must be >= {floor}, got {getattr(self, name)}")
        words, length = self.words_per_language, self.sentence_len
        if self.n_languages * words > _DISTINCT_WORDS:
            raise ContractError(f"{self.n_languages} x {words} words exceed the "
                                f"{_DISTINCT_WORDS} distinct pseudo-words")
        sources = self.n_bitext + self.n_heldout
        # two words already make more than `sources` sentences of
        # bit_length(sources) words, so capping the length there keeps the
        # power small without changing the outcome
        if words ** min(length, sources.bit_length()) < sources:
            raise ContractError(
                f"{sources} bitext and held-out pairs need distinct sources, "
                f"but {words} words make fewer {length}-word sentences")
        if self.n_nli and words <= length:
            raise ContractError(f"NLI contradictions need more than {length} "
                                f"words per language, got {words}")


def copy_task_documents(rng: np.random.Generator, languages: dict[str, list[str]],
                        spec: SynthSpec) -> list[tuple[str, list[str]]]:
    """(language, [sentence, identical sentence]) documents, round-robin."""
    tags = sorted(languages)
    docs = []
    for i in range(spec.n_docs):
        tag = tags[i % len(tags)]
        s = _sentence(rng, languages[tag], spec.sentence_len)
        docs.append((tag, [s, s]))
    return docs


def bitext_rows(rng: np.random.Generator, languages: dict[str, list[str]],
                spec: SynthSpec, count: int,
                exclude: set[str] | None = None) -> list[tuple[str, str, str, str]]:
    """Unique source sentences in l0 with cipher translations, cycling targets."""
    tags = sorted(languages)
    base = tags[0]
    rows = []
    used = set(exclude) if exclude else set()
    while len(rows) < count:
        src = _sentence(rng, languages[base], spec.sentence_len)
        if src in used:
            continue
        used.add(src)
        tgt_tag = tags[1 + len(rows) % (len(tags) - 1)]
        tgt = translate(src, languages[base], languages[tgt_tag])
        rows.append((src, tgt, base, tgt_tag))
    return rows


def nli_rows(rng: np.random.Generator, languages: dict[str, list[str]],
             spec: SynthSpec) -> list[tuple[str, str, str, str, str]]:
    """Cross-lingual premise/hypothesis pairs with derivable labels.

    entailment: the hypothesis is the premise's translation;
    contradiction: a disjoint-word sentence; neutral: half the words shared.
    """
    tags = sorted(languages)
    base = tags[0]
    base_words = languages[base]
    rows = []
    for i in range(spec.n_nli):
        tgt_tag = tags[1 + i % (len(tags) - 1)]
        tgt_words = languages[tgt_tag]
        premise_ids = rng.integers(0, len(base_words), size=spec.sentence_len)
        premise = " ".join(base_words[j] for j in premise_ids)
        label = NLI_LABEL_NAMES[i % 3]
        if label == "entailment":
            hypo_ids = premise_ids
        elif label == "contradiction":
            pool = np.setdiff1d(np.arange(len(base_words)), premise_ids)
            hypo_ids = rng.choice(pool, size=spec.sentence_len, replace=True)
        else:
            half = spec.sentence_len // 2
            fresh = rng.integers(0, len(base_words), size=spec.sentence_len - half)
            hypo_ids = np.concatenate([premise_ids[:half], fresh])
        hypothesis = " ".join(tgt_words[int(j)] for j in hypo_ids)
        rows.append((premise, hypothesis, label, base, tgt_tag))
    return rows


def write_corpus(docs: list[tuple[str, list[str]]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (tag, sentences) in enumerate(docs):
            if i:
                fh.write("\n")
            for s in sentences:
                fh.write(f"{tag}\t{s}\n")


def write_bitext(rows: list[tuple[str, str, str, str]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for src, tgt, src_lang, tgt_lang in rows:
            fh.write(f"{src}\t{tgt}\t{src_lang}\t{tgt_lang}\n")


def write_nli(rows: list[tuple[str, str, str, str, str]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for premise, hypo, label, src_lang, tgt_lang in rows:
            fh.write(f"{premise}\t{hypo}\t{label}\t{src_lang}\t{tgt_lang}\n")


def generate(out_dir: str, seed: int,
             spec: SynthSpec | None = None) -> dict[str, str]:
    """Emit corpus.txt, bitext.tsv, bitext_heldout.tsv, and nli.tsv."""
    spec = spec or SynthSpec()
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    languages = make_languages(rng, spec.n_languages, spec.words_per_language)

    docs = copy_task_documents(rng, languages, spec)
    train_rows = bitext_rows(rng, languages, spec, spec.n_bitext)
    train_sources = {r[0] for r in train_rows}
    heldout_rows = bitext_rows(rng, languages, spec, spec.n_heldout,
                               exclude=train_sources)
    nli = nli_rows(rng, languages, spec)

    paths = {
        "corpus": os.path.join(out_dir, "corpus.txt"),
        "bitext": os.path.join(out_dir, "bitext.tsv"),
        "bitext_heldout": os.path.join(out_dir, "bitext_heldout.tsv"),
        "nli": os.path.join(out_dir, "nli.tsv"),
    }
    write_corpus(docs, paths["corpus"])
    write_bitext(train_rows, paths["bitext"])
    write_bitext(heldout_rows, paths["bitext_heldout"])
    write_nli(nli, paths["nli"])
    return paths
