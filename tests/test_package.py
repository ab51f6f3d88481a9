import jointdag


def test_public_api_names_resolve():
    missing = [name for name in jointdag.__all__ if not hasattr(jointdag, name)]
    assert missing == []
    assert len(set(jointdag.__all__)) == len(jointdag.__all__)
