import treeramsey


def test_every_export_resolves():
    missing = [name for name in treeramsey.__all__ if not hasattr(treeramsey, name)]
    assert missing == []
    assert len(set(treeramsey.__all__)) == len(treeramsey.__all__)
