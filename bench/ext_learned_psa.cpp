// Extension experiment (the paper's future work, Section II-B/VI):
// "sophisticated PSA strategies incorporating, for example,
// machine-learning techniques".
//
// A k-NN classifier over the analysis-derived features is trained from the
// oracle (the uninformed flow's winners) and evaluated leave-one-out across
// the five benchmarks. Folds whose held-out label has no support in the
// remaining corpus (K-Means is the only CPU app, AdPredictor the only FPGA
// one) are reported as "unsupported" rather than misses — with five
// applications the corpus is a proof of plumbing, not of accuracy; the
// interesting part is that the full pipeline (features -> learned
// selection -> specialised designs) runs end to end.
#include <iostream>
#include <string>

#include "core/psaflow.hpp"
#include "flow/learned_strategy.hpp"
#include "flow/session.hpp"
#include "frontend/parser.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

using namespace psaflow;
using namespace psaflow::flow;

int main() {
    std::cout << "=== extension: learned (kNN) PSA strategy at branch point "
                 "A ===\n\n";

    const auto all = apps::all_applications();
    std::cout << "labelling the corpus with the oracle (uninformed flow per "
                 "app)...\n";
    const auto corpus = train_from_oracle(all);

    TablePrinter features({"Application", "label", "log10 AI",
                           "log10 Tcpu/Txfer", "parallel", "inner deps",
                           "unrollable", "dep frac", "transc frac"});
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const auto& f = corpus[i].features;
        features.add_row({all[i]->name, corpus[i].label,
                          format_compact(f.log_intensity, 3),
                          format_compact(f.log_compute_transfer, 3),
                          f.outer_parallel > 0 ? "yes" : "no",
                          f.inner_with_deps > 0 ? "yes" : "no",
                          f.inner_fully_unrollable > 0 ? "yes" : "no",
                          format_compact(f.dependent_fraction, 3),
                          format_compact(f.transcendental_fraction, 3)});
    }
    features.print(std::cout);

    std::cout << "\nleave-one-out evaluation:\n";
    TablePrinter loo({"held out", "true label", "kNN prediction", "result"});
    int correct = 0;
    int evaluable = 0;
    for (std::size_t hold = 0; hold < corpus.size(); ++hold) {
        std::vector<TrainingExample> train;
        bool label_present = false;
        for (std::size_t i = 0; i < corpus.size(); ++i) {
            if (i == hold) continue;
            train.push_back(corpus[i]);
            if (corpus[i].label == corpus[hold].label) label_present = true;
        }
        if (!label_present) {
            loo.add_row({all[hold]->name, corpus[hold].label, "-",
                         "unsupported (singleton class)"});
            continue;
        }
        ++evaluable;
        LearnedStrategy knn(train, 1);
        const std::string predicted = knn.classify(corpus[hold].features);
        const bool ok = predicted == corpus[hold].label;
        if (ok) ++correct;
        loo.add_row({all[hold]->name, corpus[hold].label, predicted,
                     ok ? "correct" : "MISS"});
    }
    loo.print(std::cout);
    std::cout << "accuracy on evaluable folds: " << correct << "/"
              << evaluable << "\n";

    // End-to-end: drive the standard flow with the learned strategy.
    std::cout << "\nend-to-end with the learned strategy at branch point A "
                 "(trained on the full corpus):\n";
    FlowSession session(session_options({}, cli::load_environment()));
    for (const apps::Application* app : all) {
        DesignFlow flow = standard_flow(Mode::Informed);
        flow.branch->strategy = std::make_shared<LearnedStrategy>(corpus, 3);
        FlowContext ctx(app->name,
                        frontend::parse_module(app->source, app->name),
                        app->workload);
        ctx.allow_single_precision = app->allow_single_precision;
        auto result = session.run(flow, std::move(ctx));
        const auto* best = result.best();
        std::cout << "  " << app->name << " -> "
                  << (best != nullptr ? best->name() + " (" +
                                            format_compact(best->speedup, 3) +
                                            "x)"
                                      : std::string("no design"))
                  << "\n";
    }
    return 0;
}
