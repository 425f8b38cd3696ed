"""Every invocation of a fixed corpus sample answers or refuses cleanly.

``cli_corpus.corpus`` draws torsion, optimize and polydisk invocations
over inline, factor-list and facet JSON models, malformed ones included,
and snf and decompose invocations on seeded matrix and complex files,
malformed ones included.  Each
must exit 0 with a report, or 2 or 3 with a message and no report; an
uncaught exception fails the test.  The toric commands take no
``--trunc``, so one that passes it must exit 2.
"""

from cli_corpus import corpus, run_one


def test_corpus_sample_answers_or_refuses(tmp_path):
    codes = set()
    for invocation in corpus(seed=0, count=200):
        invocation.write(str(tmp_path))
        code, out, err = run_one(invocation.resolved(str(tmp_path)))
        assert code in (0, 2, 3), invocation.text()
        if code:
            assert out == "" and err, invocation.text()
        else:
            assert out.startswith("command: "), invocation.text()
        if invocation.argv[0] in ("torsion", "optimize", "polydisk") \
                and "--trunc" in invocation.argv:
            assert code == 2, invocation.text()
        codes.add(code)
    assert codes == {0, 2, 3}
