// Domain example: pedestrian detection under weight drift (the paper's
// Fig. 3(j)/Fig. 4 scenario).
//
// Demonstrates:
//   - the GridDetector (YOLO-lite) on synthetic pedestrian scenes,
//   - mAP evaluation under Monte-Carlo drift,
//   - ASCII visualization of detections before/after drift.
//
// Build & run:  ./build/examples/detection_robustness

#include <iostream>

#include "data/pedestrians.hpp"
#include "detect/detector.hpp"
#include "detect/render.hpp"
#include "fault/evaluator.hpp"
#include "fault/injector.hpp"
#include "utils/logging.hpp"
#include "utils/table.hpp"

int main() {
    using namespace bayesft;
    set_log_level(LogLevel::Warn);

    Rng rng(31);
    data::PedestrianConfig scene_config;
    scene_config.samples = 200;
    const data::DetectionDataset scenes =
        data::synthetic_pedestrians(scene_config, rng);

    detect::GridDetectorConfig config;
    detect::GridDetector detector(config, rng);
    detect::DetectorTrainConfig train_config;
    train_config.epochs = 50;
    std::cout << "Training grid detector on " << scenes.size()
              << " scenes...\n";
    const double final_loss =
        detector.train(scenes.images, scenes.boxes, train_config, rng);
    std::cout << "final loss " << format_double(final_loss, 4)
              << ", clean mAP@0.5 "
              << format_double(
                     detector.evaluate_map(scenes.images, scenes.boxes) *
                         100.0,
                     1)
              << "%\n\n";

    // mAP under drift.
    ResultTable table("Detection robustness (mAP@0.5, 4 MC samples)",
                      {"sigma", "mAP %"});
    for (double sigma : {0.0, 0.2, 0.4, 0.6, 0.8}) {
        const fault::LogNormalDrift drift(sigma);
        const auto report = fault::evaluate_metric_under_faults(
            detector.network(), drift, 4, rng,
            [&](nn::Module& m) {
                return detector.evaluate_map_with(m, scenes.images,
                                                  scenes.boxes);
            },
            0);
        table.add_row({sigma, report.mean_accuracy * 100.0});
    }
    std::cout << table << '\n';

    // Visualize one scene clean vs drifted.
    const std::size_t row = scenes.images.size() / scenes.size();
    Tensor scene({3, 32, 32});
    std::copy_n(scenes.images.data(), row, scene.data());

    std::cout << "Scene 0, clean weights ('#' = detection, '+' = truth):\n"
              << detect::render_ascii(scene, detector.detect(scenes.images)[0],
                                      scenes.boxes[0]);
    {
        fault::WeightSnapshot snapshot(detector.network());
        fault::inject(detector.network(), fault::LogNormalDrift(0.4), rng);
        std::cout << "\nScene 0, drifted weights (sigma = 0.4):\n"
                  << detect::render_ascii(scene,
                                          detector.detect(scenes.images)[0],
                                          scenes.boxes[0]);
    }
    return 0;
}
