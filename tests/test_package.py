import types

import matched_transforms


def test_all_matches_public_names():
    # a name dropped from the package must also leave __all__, and vice versa
    public = {
        name for name, value in vars(matched_transforms).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(matched_transforms.__all__) == len(set(matched_transforms.__all__))
    assert set(matched_transforms.__all__) == public
    assert all(hasattr(matched_transforms, name) for name in matched_transforms.__all__)
