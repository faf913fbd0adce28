import gpade


def test_star_import_and_exports_resolve():
    namespace: dict = {}
    exec("from gpade import *", namespace)
    assert len(gpade.__all__) == len(set(gpade.__all__))
    for name in gpade.__all__:
        assert getattr(gpade, name) is namespace[name]
