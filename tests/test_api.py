import spinchains


def test_every_public_name_resolves():
    for name in spinchains.__all__:
        assert getattr(spinchains, name, None) is not None, name
