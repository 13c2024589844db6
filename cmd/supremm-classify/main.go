// Command supremm-classify trains a classifier on a SUPReMM CSV dataset
// (as produced by supremm-gen) and evaluates it on a withheld split or a
// second dataset, printing accuracy, the confusion matrix, and the
// probability-threshold curve.
//
// Usage:
//
//	supremm-classify -data train.csv [-testdata test.csv] [-algo svm|rf|nb]
//	                 [-tune] [-seed N] [-save model.bin]
//	supremm-classify -load model.bin -testdata test.csv
//
// The SVM and forest are the paper's configurations (core.PaperSVM: RBF
// gamma=0.1, C=1000; core.PaperForest: 200 trees). With -save the trained
// model is written to disk; with -load a saved model is evaluated on
// -testdata without retraining. With -tune the tool grid-searches
// (gamma, C) by cross-validation before training the SVM.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml/eval"
	"repro/internal/ml/svm"
	"repro/internal/rng"
)

func main() {
	dataPath := flag.String("data", "", "training CSV (required)")
	testPath := flag.String("testdata", "", "test CSV (default: 30% withheld from -data)")
	algo := flag.String("algo", "svm", "classifier: svm, rf, or nb")
	seed := flag.Uint64("seed", 1, "random seed for splits and training")
	savePath := flag.String("save", "", "write the trained model to this file")
	loadPath := flag.String("load", "", "load a saved model instead of training")
	tune := flag.Bool("tune", false, "grid-search (gamma, C) by cross-validation before training the SVM")
	flag.Parse()

	if *loadPath != "" {
		if *testPath == "" {
			fatal(fmt.Errorf("-load requires -testdata"))
		}
		model, err := loadModel(*loadPath)
		if err != nil {
			fatal(err)
		}
		test, err := readCSV(*testPath)
		if err != nil {
			fatal(err)
		}
		report(model, test)
		return
	}

	if *dataPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	train, err := readCSV(*dataPath)
	if err != nil {
		fatal(err)
	}
	var test *dataset.Dataset
	if *testPath != "" {
		if test, err = readCSV(*testPath); err != nil {
			fatal(err)
		}
	} else {
		train, test = train.Split(rng.New(*seed), 0.7)
	}

	var cfg core.ClassifierConfig
	switch *algo {
	case "svm":
		cfg = core.PaperSVM(*seed)
		if *tune {
			results, err := svm.Tune(train, svm.Grid{}, 3, *seed)
			if err != nil {
				fatal(err)
			}
			best := results[0]
			fmt.Printf("tuned: gamma=%v C=%v (CV accuracy %.4f)\n", best.Gamma, best.C, best.Accuracy)
			cfg.SVM.Kernel, cfg.SVM.C = svm.RBF{Gamma: best.Gamma}, best.C
		}
	case "rf":
		cfg = core.PaperForest(*seed)
	case "nb":
		cfg = core.ClassifierConfig{Algo: core.AlgoBayes}
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}

	model, err := core.TrainJobClassifier(train, cfg)
	if err != nil {
		fatal(err)
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fatal(err)
		}
		if err := model.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved model to %s\n", *savePath)
	}
	fmt.Printf("algorithm: %s; train %d rows, %d features, %d classes\n",
		*algo, train.Len(), train.NumFeatures(), train.NumClasses())
	report(model, test)
}

// loadModel reads a saved classifier from disk.
func loadModel(path string) (*core.JobClassifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadJobClassifier(f)
}

// threshold is the probability cut for the classified-fraction line (the
// paper's working point in Figures 1 and 3).
const threshold = 0.8

// report prints the evaluation for a model on a test set.
func report(model *core.JobClassifier, test *dataset.Dataset) {
	preds := model.Score(test)
	cm := eval.NewConfusionMatrix(test.ClassNames, preds)
	fmt.Printf("test rows: %d\n", test.Len())
	fmt.Printf("test accuracy: %.4f\n\n", cm.Accuracy())
	fmt.Println("confusion matrix (correct count in parentheses, then misclassifications):")
	fmt.Print(cm.String())

	curve := eval.ThresholdCurve(preds, []float64{threshold})
	fmt.Printf("\nat probability threshold %.2f: %.1f%% classified, %.1f%% correctly classified\n",
		threshold, 100*curve[0].Classified, 100*curve[0].CorrectlyClassified)
}

func readCSV(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "supremm-classify:", err)
	os.Exit(1)
}
