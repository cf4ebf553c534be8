#ifndef KOJAK_SUPPORT_ERROR_HPP
#define KOJAK_SUPPORT_ERROR_HPP

#include <stdexcept>
#include <string>

#include "support/source_location.hpp"

namespace kojak::support {

/// Root of the project's exception hierarchy (Core Guidelines E.2/E.14:
/// throw exceptions derived from a project-specific base, catch by reference).
class Error : public std::runtime_error {
 public:
  explicit Error(std::string message) : std::runtime_error(std::move(message)) {}
};

/// Lexical or syntactic error in an ASL spec or SQL statement.
class ParseError : public Error {
 public:
  ParseError(std::string message, SourceLoc loc)
      : Error(loc.to_string() + ": " + message), loc_(loc) {}

  [[nodiscard]] SourceLoc loc() const noexcept { return loc_; }

 private:
  SourceLoc loc_;
};

/// Semantic error (unknown name, type mismatch, duplicate declaration, ...).
class SemaError : public Error {
 public:
  SemaError(std::string message, SourceLoc loc)
      : Error(loc.to_string() + ": " + message), loc_(loc) {}

  [[nodiscard]] SourceLoc loc() const noexcept { return loc_; }

 private:
  SourceLoc loc_;
};

/// Runtime failure while executing a query or evaluating a property
/// (UNIQUE over a non-singleton set, division by zero, unknown table, ...).
class EvalError : public Error {
 public:
  using Error::Error;
};

/// A construct an evaluation engine cannot translate (a site no SQL
/// translator compiles). It is an EvalError but no data gap: evaluators let
/// it escape instead of reporting the context not applicable.
class CompileLimit : public EvalError {
 public:
  using EvalError::EvalError;
};

/// Failure while importing performance data (malformed report file, ...).
class ImportError : public Error {
 public:
  using Error::Error;
};

}  // namespace kojak::support

#endif  // KOJAK_SUPPORT_ERROR_HPP
