import casson4


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from casson4 import *", namespace)
    for name in casson4.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(casson4, name)
