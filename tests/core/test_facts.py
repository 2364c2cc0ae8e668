"""FactManager tests, including synonym union-find properties."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.facts import DataDescriptor, FactManager, plain


class TestSimpleFacts:
    def test_dead_blocks(self):
        facts = FactManager()
        assert not facts.is_dead_block(5)
        facts.add_dead_block(5)
        assert facts.is_dead_block(5)

    def test_irrelevant_ids(self):
        facts = FactManager()
        facts.add_irrelevant(3)
        assert facts.is_irrelevant(3)
        assert not facts.is_irrelevant(4)

    def test_irrelevant_uses(self):
        facts = FactManager()
        facts.add_irrelevant_use(10, 2)
        assert facts.is_irrelevant_use(10, 2)
        assert not facts.is_irrelevant_use(10, 1)
        assert not facts.is_irrelevant_use(11, 2)

    def test_livesafe(self):
        facts = FactManager()
        facts.add_livesafe(9)
        assert facts.is_livesafe(9)

    def test_irrelevant_pointee(self):
        facts = FactManager()
        facts.add_irrelevant_pointee(8)
        assert facts.is_irrelevant_pointee(8)


class TestSynonyms:
    def test_reflexive(self):
        facts = FactManager()
        assert facts.are_synonymous(plain(1), plain(1))

    def test_unknown_pairs(self):
        facts = FactManager()
        assert not facts.are_synonymous(plain(1), plain(2))

    def test_symmetric(self):
        facts = FactManager()
        facts.add_synonym(plain(1), plain(2))
        assert facts.are_synonymous(plain(2), plain(1))

    def test_transitive(self):
        facts = FactManager()
        facts.add_synonym(plain(1), plain(2))
        facts.add_synonym(plain(2), plain(3))
        assert facts.are_synonymous(plain(1), plain(3))

    def test_indexed_descriptors(self):
        facts = FactManager()
        component = DataDescriptor(7, (0,))
        facts.add_synonym(component, plain(3))
        facts.add_synonym(plain(9), component)
        assert facts.are_synonymous(plain(9), plain(3))

    def test_plain_synonyms_of(self):
        facts = FactManager()
        facts.add_synonym(plain(1), plain(2))
        facts.add_synonym(plain(2), plain(3))
        facts.add_synonym(DataDescriptor(4, (1,)), plain(1))
        assert facts.plain_synonyms_of(1) == [2, 3]
        assert facts.plain_synonyms_of(99) == []

    def test_distinct_classes_stay_separate(self):
        facts = FactManager()
        facts.add_synonym(plain(1), plain(2))
        facts.add_synonym(plain(3), plain(4))
        assert not facts.are_synonymous(plain(1), plain(3))

    @given(st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)), max_size=30))
    def test_union_find_is_equivalence(self, pairs):
        facts = FactManager()
        for a, b in pairs:
            facts.add_synonym(plain(a), plain(b))
        # symmetry + transitivity spot-check across all recorded descriptors
        known = [d for d in facts.known_descriptors() if d.is_plain]
        for x in known:
            for y in known:
                assert facts.are_synonymous(x, y) == facts.are_synonymous(y, x)

    def test_forget_ids(self):
        facts = FactManager()
        facts.add_dead_block(5)
        facts.add_irrelevant(5)
        facts.add_synonym(plain(5), plain(6))
        facts.add_synonym(plain(6), plain(7))
        facts.forget_ids({5})
        assert not facts.is_dead_block(5)
        assert not facts.is_irrelevant(5)
        assert facts.are_synonymous(plain(6), plain(7))
        assert not facts.are_synonymous(plain(5), plain(6))

    def test_plain_synonyms_after_forget_ids(self):
        facts = FactManager()
        facts.add_synonym(plain(5), plain(6))
        facts.add_synonym(plain(6), plain(7))
        facts.add_synonym(DataDescriptor(5, (0,)), plain(8))
        facts.add_synonym(plain(8), plain(9))
        facts.add_synonym(plain(10), plain(11))
        facts.forget_ids({5, 10})
        assert facts.plain_synonyms_of(6) == [7]
        assert facts.plain_synonyms_of(7) == [6]
        assert facts.plain_synonyms_of(8) == [9]
        assert facts.plain_synonyms_of(5) == []
        assert facts.plain_synonyms_of(11) == []
        facts.add_synonym(plain(7), plain(9))
        assert facts.plain_synonyms_of(6) == [7, 8, 9]

    def test_clone_keeps_synonym_classes_apart(self):
        facts = FactManager()
        facts.add_synonym(plain(1), plain(2))
        copy = facts.clone()
        copy.add_synonym(plain(2), plain(3))
        assert facts.plain_synonyms_of(1) == [2]
        assert copy.plain_synonyms_of(1) == [2, 3]
