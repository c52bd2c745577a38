import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citequery.tokens import REF_MARKER, tokenize, tokenize_all
from legacy_tokenizer import legacy_words


def test_paper_example_sentence():
    text = "These observations are rather in contradiction with Smith et al.'s work."
    assert tokenize(text) == (
        "these", "observations", "are", "rather", "in", "contradiction",
        "with", "smith", "et", "al's", "work",
    )


def test_empty_text():
    assert tokenize("") == ()


def test_internal_hyphen_kept():
    assert tokenize("no-consensus") == ("no-consensus",)


def test_punctuation_dropped():
    assert tokenize("(GMCR) was used, e.g. here; 50%.") == (
        "gmcr", "was", "used", "eg", "here", "50",
    )


def test_boundary_joiners_dropped():
    assert tokenize("'til the end- --") == ("til", "the", "end")


def test_ref_spans_are_cut_out():
    assert tokenize('It fails <ref id="r1"/> badly.') == ("it", "fails", "badly")


def test_ref_span_separates_words():
    assert tokenize('con<ref id="r1"/>flict') == ("con", "flict")


def test_adjacent_ref_spans():
    assert tokenize("cancer <ref id=a/> <ref id=b/>.") == ("cancer",)


def test_only_whole_markers_are_cut():
    assert tokenize("a <ref id=r1> b <ref id=r2/><reference/> c") == (
        "a", "ref", "idr1", "b", "reference", "c",
    )


def test_word_index_sequence():
    words = tokenize("a b c")
    assert words == ("a", "b", "c")
    assert [words.index(w) for w in "abc"] == [0, 1, 2]


def test_curly_apostrophe_normalized():
    assert tokenize("Smith et al.’s data") == ("smith", "et", "al's", "data")


def test_underscore_and_soft_hyphen_dropped():
    assert tokenize("snake_case co­operate") == ("snakecase", "cooperate")


@pytest.mark.parametrize("text", [
    "-a", "a-", "a--b", "'s", "al’s", "x-'y", "-a a- a--b 's al’s x-'y",
    "We -a, b- 'in' al’s x-'y end.", "well-{m}known", "al’{m}s", "{m}-a a-{m}", "x-{m}'y",
])
def test_joiners_at_chunk_edges_match_legacy_tokenizer(text):
    # "{m}" is where a ref marker goes.
    marker = '<ref id="r1"/>'
    first, *rest = text.split("{m}")
    marked, spans = first, []
    for part in rest:
        spans.append((len(marked), len(marked) + len(marker)))
        marked += marker + part
    assert tokenize(marked) == tuple(legacy_words(marked, spans))


# Characters on which a regex tokenizer could part ways with the
# per-character one: joiners, the underscore (``\w`` but not
# alphanumeric), the soft hyphen, combining marks, characters whose
# lowercase form grows (dotted capital I, ligatures stay alphanumeric),
# the final-sigma rule, non-ASCII digits, numerals and whitespace, and a
# lone surrogate, which JSON can deliver.
_TRICKY = (
    "a", "b", "Z", "0", "9", " ", "\t", "\n", "'", "’", "-", "_", ".", ",",
    "(", "<", "/", "­", "́", "̇", "İ", "ß", "ﬁ", "ﬀ", "Σ", "σ",
    "٣", "²", "Ⅻ", "½", " ", " ", "　", "ж", "漢", "\ud800",
)
_text = st.text(
    alphabet=st.one_of(st.sampled_from(_TRICKY), st.characters()), max_size=60
)


_MARKERS = ('<ref id="r1"/>', "<ref id=a/>", "<ref/>", "<ref\tid='x y' cited_year=2001 />")


@st.composite
def _text_and_spans(draw):
    """Marker-free text with markers inserted at drawn offsets, and the
    markers' spans in the result."""
    text = draw(_text.filter(lambda text: REF_MARKER.search(text) is None))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=len(text)), max_size=4,
    )))
    marked, spans, pos = "", [], 0
    for cut in cuts:
        marker = draw(st.sampled_from(_MARKERS))
        marked += text[pos:cut]
        spans.append((len(marked), len(marked) + len(marker)))
        marked += marker
        pos = cut
    return marked + text[pos:], spans


@settings(max_examples=1500, deadline=None)
@given(_text_and_spans())
def test_matches_legacy_tokenizer(case):
    text, spans = case
    assert tokenize(text) == tuple(legacy_words(text, spans))


def test_every_bmp_code_point_matches_legacy_tokenizer():
    # Each code point alone, between two letters and after a curly
    # apostrophe, by the Unicode tables of the Python running the test;
    # surrogates are included, as JSON can deliver a lone one.
    texts = [shape.format(chr(code)) for code in range(0x10000)
             for shape in ("{}", "a{}b", "a’{}")]
    assert [t for t in texts if tokenize(t) != tuple(legacy_words(t))] == []


# Fragments that could carry a marker, a cased letter's context or the
# batch separator ("<" then "\x1f") across the edge between two texts,
# and markers without their "<", which a "<" before a text would complete.
_EDGE_FRAGMENTS = ("<", "ref", "/>", "<ref", "id=", "\x1f", "Σ", *(m[1:] for m in _MARKERS))


@st.composite
def _texts(draw):
    """Up to 8 texts: a drawn run of fragments and characters, cut at
    drawn offsets."""
    pieces = draw(st.lists(st.one_of(  # an edge fragment half the time
        st.sampled_from(_EDGE_FRAGMENTS),
        st.one_of(st.sampled_from(_TRICKY + _MARKERS), st.characters()),
    ), max_size=32))
    ends = sorted(draw(st.lists(st.integers(0, len(pieces)), max_size=8)))
    return ["".join(pieces[start:end]) for start, end in zip([0, *ends], ends)]


@settings(max_examples=2000, deadline=None)
@given(_texts())
def test_tokenize_all_equals_tokenize_per_text(texts):
    assert tokenize_all(texts) == [tokenize(text) for text in texts]


def test_every_bmp_code_point_tokenizes_alike_in_batches():
    # Batches of 7 put each code point at a text's start, middle and end,
    # beside the texts before and after it.
    texts = [shape.format(chr(code)) for code in range(0x10000)
             for shape in ("{}", "a{}b", "’{}", "Σ{}", "{}Σ")]
    batches = [texts[i:i + 7] for i in range(0, len(texts), 7)]
    assert [b for b in batches if tokenize_all(b) != list(map(tokenize, b))] == []
