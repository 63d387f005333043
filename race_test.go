//go:build race

package modab_test

func init() { raceDetector = true }
