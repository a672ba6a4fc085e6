import beamtrack


def test_every_exported_name_resolves():
    missing = [name for name in beamtrack.__all__ if not hasattr(beamtrack, name)]
    assert not missing
    assert len(set(beamtrack.__all__)) == len(beamtrack.__all__)
