"""The default corpus stays bit-for-bit the historical one."""

from repro.data import corpus, scenario_spec
from repro.data.corpus import build_corpus, corpus_fingerprint

#: Golden fingerprint of the default corpus at this scale — the
#: historical corpus bytes every route to the corpus must reproduce.
GOLDEN_FINGERPRINT = "904b83702eaccf38"
SCALE = 0.05


class TestBitForBit:
    def test_store_and_raw_build_agree(self):
        """The store-backed repro.data.corpus and a raw build_corpus
        from the spec produce identical bytes, pinned by a golden
        fingerprint."""
        via_data = corpus("default", SCALE, 0)
        via_build = build_corpus(scenario_spec("default", scale=SCALE))
        assert corpus_fingerprint(via_data) == GOLDEN_FINGERPRINT
        assert corpus_fingerprint(via_build) == GOLDEN_FINGERPRINT
