"""The package's public name list."""

import catlab


def test_all_is_sorted_unique_and_resolves():
    names = catlab.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(catlab, name), name


def test_removed_names_stay_removed():
    for name in ("ScenarioDoc", "serialize_scenario", "parse_scenario"):
        assert name not in catlab.__all__
        assert not hasattr(catlab, name)
