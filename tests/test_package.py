import walshlab


def test_public_names_resolve():
    # An export left behind by a deleted name would only show at import time.
    names = walshlab.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(walshlab, name)] == []
    namespace = {}
    exec("from walshlab import *", namespace)
    assert set(names) <= set(namespace)
