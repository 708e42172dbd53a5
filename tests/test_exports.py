from __future__ import annotations

import coupled_fpi


def test_every_export_resolves_and_the_list_is_sorted():
    # a deleted or renamed name cannot linger in __all__
    missing = [name for name in coupled_fpi.__all__ if not hasattr(coupled_fpi, name)]
    assert missing == []
    assert coupled_fpi.__all__ == sorted(coupled_fpi.__all__)
    assert len(set(coupled_fpi.__all__)) == len(coupled_fpi.__all__)
